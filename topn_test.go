package qpipe_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"qpipe"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
)

const topNBench = `SELECT oid, amount FROM orders WHERE amount > 900 ORDER BY amount DESC, oid DESC LIMIT `

// ORDER BY … LIMIT n is a Top-N in the plan when the sort is the plan's root
// and one sort run holds n rows, and a result-level limit otherwise.
func TestTopNPlans(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, false)
	ctx := context.Background()
	explain := func(text string) string {
		t.Helper()
		res, err := db.Query(ctx, "EXPLAIN "+text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r[0].S + "\n")
		}
		return b.String()
	}
	planOf := func(q *qpipe.Query) plan.Node {
		t.Helper()
		p, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prepared := func(text string) plan.Node {
		t.Helper()
		q, err := db.Prepare(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return planOf(q)
	}

	if ex := explain(topNBench + "10"); !strings.Contains(ex, "Sort keys=[1 0] desc top=10 rows≈10") || strings.Contains(ex, "result-level") {
		t.Fatalf("the benchmark's topn statement is not a Top-N:\n%s", ex)
	}
	if ex := explain(topNBench + "100000"); strings.Contains(ex, "top=") || !strings.Contains(ex, "limit: 100000 (result-level)") {
		t.Fatalf("LIMIT 100000 is more than one sort run holds:\n%s", ex)
	}
	if ex := explain(fmt.Sprint(topNBench, plan.SortRunSize)); !strings.Contains(ex, fmt.Sprint("top=", plan.SortRunSize)) {
		t.Fatalf("LIMIT %d is what one sort run holds:\n%s", plan.SortRunSize, ex)
	}

	// Both front ends, one signature.
	built := db.Scan("orders").Filter(qpipe.Col("amount").Gt(qpipe.Float(900))).
		Select("oid", "amount").SortDesc("amount", "oid").Limit(10)
	if got, want := planOf(built).Signature(), prepared(topNBench+"10").Signature(); got != want {
		t.Fatalf("builder and SQL plan the Top-N differently:\nbuilder: %s\nSQL:     %s", got, want)
	}
	if a, b := prepared(topNBench+"10").Signature(), prepared(topNBench+"11").Signature(); a == b {
		t.Fatal("LIMIT 10 and LIMIT 11 share a signature")
	}

	// Plans whose root is not the Sort are what they were without the limit.
	for _, text := range []string{
		`SELECT oid, amount FROM orders WHERE amount > 900`,
		`SELECT region, count(*) AS n FROM orders GROUP BY region`,
	} {
		if a, b := prepared(text+" LIMIT 10").Signature(), prepared(text).Signature(); a != b {
			t.Errorf("%s: LIMIT without ORDER BY changed the plan:\n%s\n%s", text, a, b)
		}
		if ex := explain(text + " LIMIT 10"); !strings.Contains(ex, "limit: 10 (result-level)") {
			t.Errorf("%s LIMIT 10: the limit is not at result level:\n%s", text, ex)
		}
	}
	joined := db.Scan("customers").Join(db.Scan("orders").Sort("amount"), "cid", "cust")
	if a, b := planOf(joined.Limit(10)).Signature(), planOf(joined).Signature(); a != b || strings.Contains(a, "top=") {
		t.Errorf("ORDER BY under a join took the limit:\n%s\n%s", a, b)
	}
}

// A limit belongs to the whole query wherever the chain names it: a filter
// written after Limit still filters before the first n rows are taken, as
// it did when the limit was applied to the result.
func TestTopNBuilderFilterAfterLimit(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, false)
	ctx := context.Background()
	q := db.Scan("orders").SortDesc("amount", "oid").Limit(5).Filter(qpipe.Col("region").Eq(qpipe.Int(3)))
	res, err := q.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	// The answer by hand: every region-3 row, sorted, the first five.
	all, err := db.Query(ctx, `SELECT * FROM orders WHERE region = 3 ORDER BY amount DESC, oid DESC`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := all.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || fmt.Sprint(got) != fmt.Sprint(want[:5]) {
		t.Fatalf("got  %v\nwant %v", got, want[:5])
	}
	for _, r := range got {
		if r[2].I != 3 {
			t.Fatalf("row %v does not pass the filter", r)
		}
	}
}

// Around the boundary of what one sort run holds the two sort paths return
// the same rows: n = SortRunSize is the heap, n + 1 the external sort with
// the limit at the result.
func TestTopNBoundaryMatchesExternalSort(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, false)
	ctx := context.Background()
	oracle := volcano.New(db.Engine().Runtime().SM)
	for _, n := range []int64{plan.SortRunSize, plan.SortRunSize + 1} {
		text := fmt.Sprintf(`SELECT oid, amount FROM orders ORDER BY amount DESC, oid DESC LIMIT %d`, n)
		q, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if isTop := p.(*plan.Sort).Limit > 0; isTop != (n == plan.SortRunSize) {
			t.Fatalf("LIMIT %d: Top-N %v", n, isTop)
		}
		want, err := oracle.Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(want)) > n {
			want = want[:n]
		}
		for _, par := range []int{1, 4} {
			res, err := q.Run(ctx, qpipe.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.All()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(got)) != n || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("LIMIT %d at parallelism %d: %d rows; they differ from the iterator engine's sort, truncated", n, par, len(got))
			}
		}
	}
}

// Running the benchmark's topn statement reserves no temp file name and
// writes no block, embedded and over the wire.
func TestTopNStatementWritesNoTempFile(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, false)
	ctx := context.Background()
	mgr := db.Engine().Runtime().SM
	conn := apServe(t, db)
	probe := func() int {
		var seq int
		fmt.Sscanf(mgr.TempName("probe"), "tmp:probe:%d", &seq)
		return seq
	}
	before, writes := probe(), db.DiskStats().Writes
	res, err := db.Query(ctx, topNBench+"10")
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	wres, err := conn.Query(ctx, topNBench+"10")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wres.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(embedded) != 10 || fmt.Sprint(embedded) != fmt.Sprint(wire) {
		t.Fatalf("embedded %v\nwire     %v", embedded, wire)
	}
	if after := probe(); after != before+1 {
		t.Fatalf("two Top-N statements reserved %d temp names", after-before-1)
	}
	if w := db.DiskStats().Writes; w != writes {
		t.Fatalf("two Top-N statements wrote %d blocks", w-writes)
	}
}
