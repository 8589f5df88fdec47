// MQO batch demo (paper §2.4): queries sharing a common subexpression are
// submitted together via RunBatch, and OSP pipelines the shared intermediate
// result to every member — no materialization, no batch-time optimizer.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"qpipe"
)

func main() {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 128})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.CreateTable("orders", qpipe.NewSchema(
		qpipe.ColDef("id", qpipe.KindInt),
		qpipe.ColDef("region", qpipe.KindInt),
		qpipe.ColDef("amount", qpipe.KindFloat),
	)); err != nil {
		log.Fatal(err)
	}
	rows := make([]qpipe.Row, 50_000)
	for i := range rows {
		rows[i] = qpipe.R(i, i%8, float64(i%990)/3)
	}
	if err := db.Load("orders", rows); err != nil {
		log.Fatal(err)
	}
	db.SetDiskLatency(40*time.Microsecond, 60*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	// Two reports over the same sorted intermediate result.
	common := func() *qpipe.Query {
		return db.Scan("orders").
			Filter(qpipe.Col("amount").Lt(qpipe.Float(200))).
			Select("region", "amount").
			Sort("region")
	}
	batch := []*qpipe.Query{
		common().Aggregate(qpipe.Sum(qpipe.Col("amount")).As("sum")),
		common().GroupBy([]string{"region"}, qpipe.Count().As("n")),
	}
	explain, err := batch[1].Explain()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan of batch query 2:")
	fmt.Print(explain)

	sharesBefore := db.TotalShares()
	start := time.Now()
	results, err := db.RunBatch(context.Background(), batch)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, r := range results {
		wg.Add(1)
		go func(i int, r *qpipe.Result) {
			defer wg.Done()
			n, err := r.Discard()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("batch query %d: %d rows\n", i+1, n)
		}(i, r)
	}
	wg.Wait()
	fmt.Printf("batch done in %s; shared operators: %d (the common sort+scan ran once)\n",
		time.Since(start).Round(time.Millisecond), db.TotalShares()-sharesBefore)
}
