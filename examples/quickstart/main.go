// Quickstart: open an embedded QPipe database, load a table, and run
// queries through the schema-aware builder — the minimal end-to-end tour of
// the public API. Note the single import: the facade needs nothing from
// qpipe/internal.
package main

import (
	"context"
	"fmt"
	"log"

	"qpipe"
)

func main() {
	// 1. One handle owns the whole stack: simulated disk, buffer pool,
	// lock manager, catalog and the engine (OSP enabled by default).
	db, err := qpipe.Open(qpipe.Options{PoolPages: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 2. Define and load a table. R builds rows from native Go values.
	if err := db.CreateTable("cities", qpipe.NewSchema(
		qpipe.ColDef("id", qpipe.KindInt),
		qpipe.ColDef("city", qpipe.KindString),
		qpipe.ColDef("pop", qpipe.KindFloat),
	)); err != nil {
		log.Fatal(err)
	}
	rows := []qpipe.Row{
		qpipe.R(1, "Pittsburgh", 0.30),
		qpipe.R(2, "Baltimore", 0.61),
		qpipe.R(3, "Boston", 0.65),
		qpipe.R(4, "Madison", 0.27),
		qpipe.R(5, "Seattle", 0.74),
	}
	if err := db.Load("cities", rows); err != nil {
		log.Fatal(err)
	}

	// 3. Build a query by column name: scan -> filter -> project. Names
	// resolve against the catalog as the chain is built; an unknown column
	// or a type mismatch comes back as a typed error from Run.
	res, err := db.Scan("cities").
		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
		Project(
			qpipe.Col("city"),
			qpipe.Col("pop").Mul(qpipe.Float(1e6)).As("population")).
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// 4. Stream the result. Rows are immutable and may be retained.
	fmt.Println("cities with pop > 500k:")
	for row := range res.Rows() {
		fmt.Printf("  %-12s %8.0f\n", row[0].S, row[1].F)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}

	// 5. A scalar aggregate over the same table.
	res2, err := db.Scan("cities").
		Aggregate(
			qpipe.Count().As("n"),
			qpipe.Sum(qpipe.Col("pop")).As("total_pop")).
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	out, err := res2.All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count=%d total=%.2fM\n", out[0][0].I, out[0][1].F)

	st := db.Stats()
	fmt.Printf("queries executed: %d\n", st.Queries)
}
