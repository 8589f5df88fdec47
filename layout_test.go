package qpipe_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"qpipe"
	"qpipe/internal/core"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// lyExec runs statements that must succeed.
func lyExec(t *testing.T, db *qpipe.DB, text string) {
	t.Helper()
	if _, err := db.Exec(context.Background(), text); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
}

// TestReindexSeesNoStaleFrames: an index built over the name of an earlier
// one is a new file, and nothing the pool kept of the old file — frames,
// layouts, a leaf list — may answer for it. The clustered index moves from a
// to b with range and full scans through it before and after, in SQL and on
// the builder; the unclustered index on a is built twice with a Load between.
func TestReindexSeesNoStaleFrames(t *testing.T) {
	ctx := context.Background()
	db := apOpen(t, qpipe.Options{})
	lyExec(t, db, "CREATE TABLE t (a INT, b INT)")
	const n = 2000
	batch := func(from, to int) []qpipe.Row {
		var rows []qpipe.Row
		for i := from; i < to; i++ {
			rows = append(rows, qpipe.R(i, (i*7+3)%n)) // b is a permutation of a
		}
		return rows
	}
	if err := db.Load("t", batch(0, n)); err != nil {
		t.Fatal(err)
	}
	through := func(col, kind string) {
		t.Helper()
		text := fmt.Sprintf("SELECT %[1]s FROM t WHERE %[1]s >= 10 AND %[1]s <= 60 ORDER BY %[1]s", col)
		if plan, err := db.Query(ctx, "EXPLAIN "+text); err != nil {
			t.Fatal(err)
		} else if rows, _ := plan.All(); !strings.Contains(fmt.Sprint(rows), "IndexScan t."+col+" ("+kind) {
			t.Fatalf("%s is not planned through the %s index on %s:\n%v", text, kind, col, rows)
		}
		got, _ := skAnswer(t, db, text)
		if want := skVolcano(t, db, cpPlan(t, db, text)); len(got) != 51 || !equalRows(got, want) {
			t.Fatalf("%s: got %d rows, want 51 (the iterator engine has %d)", text, len(got), len(want))
		}
		ranged := db.ScanIndex("t", col, qpipe.IntValue(10), qpipe.IntValue(60)).Select(col)
		whole := db.ScanIndex("t", col, qpipe.Value{}, qpipe.Value{}).Select(col)
		for _, q := range []*qpipe.Query{ranged, whole} {
			res, err := q.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatal(err)
			}
			p, _ := q.Plan()
			if want := skVolcano(t, db, p); !equalRows(apSorted(rows), want) || (q == whole && len(rows) != n) || (q == ranged && len(rows) != 51) {
				t.Fatalf("builder scan through %s (%d rows; the iterator engine has %d)", col, len(rows), len(want))
			}
		}
	}
	lyExec(t, db, "CREATE CLUSTERED INDEX ON t (a); ANALYZE")
	through("a", "clustered")
	lyExec(t, db, "CREATE CLUSTERED INDEX ON t (b)")
	through("b", "clustered")

	// The unclustered spelling: the tree on u.a is read, the table grows, the
	// tree is built again under the same name.
	lyExec(t, db, "CREATE TABLE u (a INT, b INT)")
	if err := db.Load("u", batch(0, n/2)); err != nil {
		t.Fatal(err)
	}
	lyExec(t, db, "CREATE INDEX ON u (a)")
	point := func(want int) {
		t.Helper()
		q := db.ScanIndex("u", "a", qpipe.IntValue(700), qpipe.IntValue(1300))
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		p, _ := q.Plan()
		if ref := skVolcano(t, db, p); len(rows) != want || !equalRows(apSorted(rows), ref) {
			t.Fatalf("u through its index on a: %d rows, want %d (the iterator engine has %d)", len(rows), want, len(ref))
		}
	}
	point(300)
	if err := db.Load("u", batch(n/2, n)); err != nil {
		t.Fatal(err)
	}
	point(601)
	lyExec(t, db, "CREATE INDEX ON u (a)")
	point(601)
}

// lyCase is one write of TestLayoutDroppedByEveryWrite: what it does to the
// database and how many of the scanned file's pages the scan after it must
// locate afresh, given the file's page count before and after.
type lyCase struct {
	name    string
	table   string                           // h: a heap, scanned as one; c: clustered on k, scanned through its leaves
	prepare string                           // run before the first scan
	write   func(t *testing.T, db *qpipe.DB) // between the warm scan and the next
	located func(before, after int64) int64
}

func lyRow(i int) qpipe.Row { return qpipe.R(i, i%9, float64(i%40)/4, fmt.Sprintf("s%02d", i%17)) }

var lyCases = []lyCase{
	{"INSERT into the open tail", "h", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "INSERT INTO h VALUES (9000, 1, 0.5, 'tail')") },
		func(before, after int64) int64 { return 1 + after - before }},
	{"UPDATE of the same width", "h", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "UPDATE h SET f = f + 0.25 WHERE k = 40") },
		func(_, _ int64) int64 { return 1 }},
	{"UPDATE growing a TEXT: the page repacks", "h", "DELETE FROM h WHERE k = 43", // its neighbour, for room
		func(t *testing.T, db *qpipe.DB) {
			lyExec(t, db, "UPDATE h SET s = 'grown-to-a-longer-string' WHERE k = 41")
		},
		func(_, _ int64) int64 { return 1 }},
	{"DELETE", "h", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "DELETE FROM h WHERE k = 42") },
		func(_, _ int64) int64 { return 1 }},
	{"UPDATE of rows on many pages", "h", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "UPDATE h SET f = 0.5 WHERE g = 4") },
		func(before, _ int64) int64 { return before }},
	// The bulk load packed the leaves: a first insert splits one, a second of
	// the same key finds room in a half.
	{"insert into a clustered table, no leaf split", "c", "INSERT INTO c VALUES (300, 1, 0.5, 's')",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "INSERT INTO c VALUES (300, 2, 0.5, 's')") },
		func(before, after int64) int64 { return 1 + 2*(after-before) }},
	{"insert into a clustered table, a leaf splits", "c", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "INSERT INTO c VALUES (301, 1, 0.5, 's')") },
		func(before, after int64) int64 { return 2 * (after - before) }}, // the leaf rewritten and the one appended
	{"a rolled-back transaction", "h", "",
		func(t *testing.T, db *qpipe.DB) {
			var sess qpipe.Session
			for _, text := range []string{"BEGIN", "UPDATE h SET f = 99.5 WHERE g = 2", "DELETE FROM h WHERE k < 100", "ROLLBACK"} {
				if _, err := db.ExecSession(context.Background(), &sess, text); err != nil {
					t.Fatalf("%s: %v", text, err)
				}
			}
		},
		func(_, _ int64) int64 { return 0 }},
	{"Load", "h", "",
		func(t *testing.T, db *qpipe.DB) {
			var rows []qpipe.Row
			for i := 5000; i < 5400; i++ {
				rows = append(rows, lyRow(i))
			}
			if err := db.Load("h", rows); err != nil {
				t.Fatal(err)
			}
		},
		func(before, after int64) int64 { return 1 + after - before }},
	{"DropCaches", "h", "",
		func(t *testing.T, db *qpipe.DB) {
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
		},
		func(_, after int64) int64 { return after }},
	{"re-index", "c", "",
		func(t *testing.T, db *qpipe.DB) { lyExec(t, db, "CREATE CLUSTERED INDEX ON c (k)") },
		func(_, after int64) int64 { return after }},
}

// TestLayoutDroppedByEveryWrite: on a warm pool — a scan has left every page
// of the table located — one write, then the scan again. Its answer is the
// iterator engine's, and the pages it had to locate afresh are the pages the
// write touched and no others: none for a transaction rolled back, all after
// DropCaches, one for a row. A layout that outlived a write to its page would
// show as a wrong answer (or a damaged-page error) and as a page too few.
func TestLayoutDroppedByEveryWrite(t *testing.T) {
	for _, c := range lyCases {
		for _, par := range []int{1, 4} {
			for _, noOSP := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/P=%d/osp=%v", c.name, par, !noOSP), func(t *testing.T) {
					lyWriteBetweenScans(t, c, core.QueryOptions{Parallelism: par, DisableOSP: noOSP})
				})
			}
		}
	}
}

// lyWriteBetweenScans is one case of TestLayoutDroppedByEveryWrite under one
// way of running the scan.
func lyWriteBetweenScans(t *testing.T, c lyCase, opts core.QueryOptions) {
	ctx := context.Background()
	schema := qpipe.NewSchema(qpipe.ColDef("k", tuple.KindInt), qpipe.ColDef("g", tuple.KindInt),
		qpipe.ColDef("f", tuple.KindFloat), qpipe.ColDef("s", tuple.KindString))
	db := apOpen(t, qpipe.Options{})
	lyExec(t, db, "CREATE TABLE h (k INT, g INT, f FLOAT, s TEXT); CREATE TABLE c (k INT, g INT, f FLOAT, s TEXT)")
	var rows []qpipe.Row
	for i := 0; i < 1500; i++ {
		rows = append(rows, lyRow(i))
	}
	for _, tb := range []string{"h", "c"} {
		if err := db.Load(tb, rows); err != nil {
			t.Fatal(err)
		}
	}
	lyExec(t, db, "CREATE CLUSTERED INDEX ON c (k);"+c.prepare)
	rt := db.Engine().Runtime()
	pool := rt.SM.Pool
	// The scanned file's pages, and the scan of all of them.
	pages := func() int64 {
		if c.table == "h" {
			return rt.SM.MustTable("h").Heap.NumPages()
		}
		return rt.SM.MustTable("c").Clustered.NumLeaves()
	}
	var scan plan.Node = plan.NewTableScan("h", schema, nil, []int{0, 2, 3}, false)
	if c.table == "c" {
		scan = plan.NewIndexScan("c", schema, "k", tuple.Value{}, tuple.Value{}, true, false, nil, []int{0, 2, 3})
	}
	run := func(when string) (visited, located int64) {
		t.Helper()
		q, err := rt.SubmitOpts(ctx, scan, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []qpipe.Row
		for {
			b, err := q.Result.Get()
			if err != nil {
				break
			}
			got = append(got, b...)
		}
		if err := q.Wait(); err != nil {
			t.Fatalf("the scan %s: %v", when, err)
		}
		if want := skVolcano(t, db, scan); !equalRows(apSorted(got), want) {
			t.Fatalf("the scan %s: %d rows, the iterator engine has %d", when, len(got), len(want))
		}
		return q.Stats.PagesVisited.Load(), q.Stats.PagesLocated.Load()
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := pages()
	if v, l := run("of the cold table"); v != before || l != before {
		t.Fatalf("cold: %d of %d pages visited, %d located", v, before, l)
	}
	if v, l := run("of the warm table"); v != before || l != 0 {
		t.Fatalf("warm: %d of %d pages visited, %d located", v, before, l)
	}
	// Every layout in the pool is of the scanned file: nothing
	// else has been scanned since the pool was emptied.
	if n := int64(pool.Stats().Layouts); n != before {
		t.Fatalf("%d layouts in the pool, the file has %d pages", n, before)
	}
	c.write(t, db)
	after := pages()
	want, bare := c.located(before, after), after-int64(pool.Stats().Layouts)
	if v, l := run("after the write"); v != after || l != want || bare != want {
		t.Fatalf("after the write: %d of %d pages visited (%d before), %d without a layout and %d located, want %d", v, after, before, bare, l, want)
	}
	if v, l := run("after that"); v != after || l != 0 {
		t.Fatalf("the scan after that: %d of %d pages visited, %d located", v, after, l)
	}
}

// TestVectorsDroppedByAWrite: a warm page's numbers are read from the vectors
// its layout carries, and an UPDATE that rewrites a filtered, summed and
// grouped-by number of a heap in place — same width, so every offset stays
// right — must drop them with the layout, as must an INSERT into a clustered
// index's leaf: the scans after them, at parallelism 1 and 4, cold and warm
// again, equal the iterator engine.
func TestVectorsDroppedByAWrite(t *testing.T) {
	db := apOpen(t, qpipe.Options{})
	lyExec(t, db, "CREATE TABLE h (k INT, g INT, f FLOAT, s TEXT); CREATE TABLE c (k INT, g INT, f FLOAT, s TEXT)")
	var rows []qpipe.Row
	for i := 0; i < 1500; i++ {
		rows = append(rows, lyRow(i))
	}
	for _, tb := range []string{"h", "c"} {
		if err := db.Load(tb, rows); err != nil {
			t.Fatal(err)
		}
	}
	lyExec(t, db, "CREATE CLUSTERED INDEX ON c (k); ANALYZE")
	scans := func(when string, warm bool) {
		t.Helper()
		for _, tb := range []string{"h", "c"} {
			for _, text := range []string{
				"SELECT k, f FROM " + tb + " WHERE f < 3.5",
				"SELECT g, sum(f) AS s, min(f) AS lo, count(*) AS n FROM " + tb + " WHERE f >= 2 GROUP BY g",
				"SELECT f, count(*) AS n FROM " + tb + " GROUP BY f",
			} {
				for _, par := range []int{1, 4} {
					got, res := skAnswer(t, db, text, qpipe.WithParallelism(par))
					if want := skVolcano(t, db, cpPlan(t, db, text)); !equalRows(got, want) {
						t.Fatalf("%s, P=%d, %s: %d rows, the iterator engine has %d", when, par, text, len(got), len(want))
					}
					if located := res.Stats().PagesLocated.Load(); warm && located != 0 {
						t.Fatalf("%s, P=%d, %s: %d pages located, want a warm scan", when, par, text, located)
					}
				}
			}
		}
	}
	scans("cold", false)
	scans("warm", true)
	lyExec(t, db, "UPDATE h SET f = f + 5 WHERE g = 4; INSERT INTO c VALUES (300, 4, 0.25, 'x')")
	scans("after the UPDATE", false)
	scans("warm again", true)
}
