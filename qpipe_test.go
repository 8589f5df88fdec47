package qpipe

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// newTestDB creates a storage manager with one table "t"(k int, grp int,
// val float, name string) holding n rows: k=i, grp=i%10, val=i/2, name="r<i>".
func newTestDB(t testing.TB, n int) *sm.Manager {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 64})
	schema := tuple.NewSchema(
		tuple.Col("k", tuple.KindInt),
		tuple.Col("grp", tuple.KindInt),
		tuple.Col("val", tuple.KindFloat),
		tuple.Col("name", tuple.KindString),
	)
	if _, err := mgr.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = tuple.Tuple{
			tuple.I64(int64(i)), tuple.I64(int64(i % 10)),
			tuple.F64(float64(i) / 2), tuple.Str(fmt.Sprintf("r%d", i)),
		}
	}
	if err := mgr.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return mgr
}

func tableSchema(mgr *sm.Manager) *tuple.Schema { return mgr.MustTable("t").Schema }

func TestScanAll(t *testing.T) {
	mgr := newTestDB(t, 500)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	p := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), p, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("scan returned %d rows, want 500", len(rows))
	}
}

func TestScanWithFilterAndProject(t *testing.T) {
	mgr := newTestDB(t, 300)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	pred := expr.LT(expr.Col(0), expr.CInt(50))
	p := plan.NewTableScan("t", tableSchema(mgr), pred, []int{0, 2}, false)
	res, _ := db.run(context.Background(), p, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("filtered scan: %d rows, want 50", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("projection width: %v", r)
		}
		if r[0].I >= 50 {
			t.Fatalf("filter leak: %v", r)
		}
	}
}

func TestAggregate(t *testing.T) {
	mgr := newTestDB(t, 100)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	agg := plan.NewAggregate(scan, []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: expr.Col(0)},
		{Kind: expr.AggMin, Arg: expr.Col(0)},
		{Kind: expr.AggMax, Arg: expr.Col(0)},
	})
	res, _ := db.run(context.Background(), agg, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("aggregate rows: %d", len(rows))
	}
	r := rows[0]
	if r[0].I != 100 || r[1].F != 4950 || r[2].AsFloat() != 0 || r[3].AsFloat() != 99 {
		t.Fatalf("aggregate values: %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	mgr := newTestDB(t, 100)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	gb := plan.NewGroupBy(scan, []int{1}, []expr.AggSpec{{Kind: expr.AggCount}})
	res, _ := db.run(context.Background(), gb, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("groups: %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 10 {
			t.Fatalf("group count: %v", r)
		}
	}
}

func TestSortOrdersOutput(t *testing.T) {
	mgr := newTestDB(t, 200)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	srt := plan.NewSort(scan, []int{3}, false) // sort by name (string)
	res, _ := db.run(context.Background(), srt, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("sorted rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if tuple.Compare(rows[i-1][3], rows[i][3]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, rows[i-1][3], rows[i][3])
		}
	}
}

func TestHashJoin(t *testing.T) {
	mgr := newTestDB(t, 100)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	// Self-join on grp: each of 100 rows matches 10 rows → 1000.
	l := plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 0}, false)
	r := plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 2}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, _ := db.run(context.Background(), agg, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 1000 {
		t.Fatalf("join cardinality: %v, want 1000", rows[0][0])
	}
}

func TestMergeJoinOverSortedInputs(t *testing.T) {
	mgr := newTestDB(t, 120)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	l := plan.NewSort(plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 0}, false), []int{0}, false)
	r := plan.NewSort(plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 2}, false), []int{0}, false)
	j := plan.NewMergeJoin(l, r, 0, 0, false)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, _ := db.run(context.Background(), agg, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	// 120 rows, 10 groups of 12: 10 * 12 * 12 = 1440.
	if rows[0][0].I != 1440 {
		t.Fatalf("merge join cardinality: %v, want 1440", rows[0][0])
	}
}

func TestNLJoin(t *testing.T) {
	mgr := newTestDB(t, 40)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	l := plan.NewTableScan("t", tableSchema(mgr), expr.LT(expr.Col(0), expr.CInt(5)), []int{0}, false)
	r := plan.NewTableScan("t", tableSchema(mgr), expr.LT(expr.Col(0), expr.CInt(8)), []int{0}, false)
	j := plan.NewNLJoin(l, r, expr.LT(expr.Col(0), expr.Col(1)))
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, _ := db.run(context.Background(), agg, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	// pairs (a,b) a in 0..4, b in 0..7, a<b: sum_{a=0}^{4} (7-a) = 7+6+5+4+3 = 25.
	if rows[0][0].I != 25 {
		t.Fatalf("nljoin cardinality: %v, want 25", rows[0][0])
	}
}

func TestFilterAndProjectNodes(t *testing.T) {
	mgr := newTestDB(t, 60)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	f := plan.NewFilter(scan, expr.GE(expr.Col(0), expr.CInt(50)))
	pr := plan.NewProject(f, []expr.Expr{expr.Mul(expr.Col(0), expr.CInt(2))}, []string{"k2"})
	res, _ := db.run(context.Background(), pr, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows: %d", len(rows))
	}
	sum := int64(0)
	for _, r := range rows {
		sum += r[0].I
	}
	if sum != 2*(50+51+52+53+54+55+56+57+58+59) {
		t.Fatalf("sum: %d", sum)
	}
}

func TestUpdateThenScan(t *testing.T) {
	mgr := newTestDB(t, 10)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	up := plan.NewUpdate("t", []tuple.Tuple{
		{tuple.I64(1000), tuple.I64(0), tuple.F64(1), tuple.Str("new1")},
		{tuple.I64(1001), tuple.I64(1), tuple.F64(2), tuple.Str("new2")},
	})
	res, _ := db.run(context.Background(), up, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 2 {
		t.Fatalf("update count: %v", rows[0])
	}
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res2, _ := db.run(context.Background(), scan, -1, queryOpts{})
	all, _ := res2.All()
	if len(all) != 12 {
		t.Fatalf("rows after insert: %d", len(all))
	}
}

func TestClusteredIndexScan(t *testing.T) {
	mgr := newTestDB(t, 150)
	if err := mgr.BuildClustered("t", "k"); err != nil {
		t.Fatal(err)
	}
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	p := plan.NewIndexScan("t", tableSchema(mgr), "k", tuple.Value{}, tuple.Value{}, true, true, nil, nil)
	res, _ := db.run(context.Background(), p, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatalf("clustered scan out of key order at %d", i)
		}
	}
	// Bounded scan.
	p2 := plan.NewIndexScan("t", tableSchema(mgr), "k", tuple.I64(10), tuple.I64(19), true, true, nil, nil)
	res2, _ := db.run(context.Background(), p2, -1, queryOpts{})
	rows2, err := res2.All()
	if err != nil || len(rows2) != 10 {
		t.Fatalf("bounded clustered scan: %d %v", len(rows2), err)
	}
}

func TestUnclusteredIndexScan(t *testing.T) {
	mgr := newTestDB(t, 150)
	if err := mgr.BuildUnclustered("t", "grp"); err != nil {
		t.Fatal(err)
	}
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	p := plan.NewIndexScan("t", tableSchema(mgr), "grp", tuple.I64(3), tuple.I64(4), false, false, nil, nil)
	res, _ := db.run(context.Background(), p, -1, queryOpts{})
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("unclustered probe: %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if g := r[1].I; g != 3 && g != 4 {
			t.Fatalf("wrong group: %v", r)
		}
	}
}

// TestConcurrentIdenticalQueriesShare exercises OSP end to end: two
// identical aggregate queries submitted together must share work (one
// becomes a satellite) and produce identical results.
func TestConcurrentIdenticalQueriesShare(t *testing.T) {
	mgr := newTestDB(t, 2000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mkPlan := func() plan.Node {
		scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
		return plan.NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(0)}})
	}
	const n = 4
	var wg sync.WaitGroup
	results := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.run(context.Background(), mkPlan(), -1, queryOpts{})
			if err != nil {
				errs[i] = err
				return
			}
			rows, err := res.All()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rows[0][0].F
		}(i)
	}
	wg.Wait()
	want := float64(2000*1999) / 2
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Fatalf("query %d: sum %v, want %v", i, results[i], want)
		}
	}
}

// heldScan starts a bare scan of "t" on a tiny pool (so there is no
// buffer-pool sharing) and reads k batches of its result and no further. A
// query whose result is not read holds its whole pipeline, so the scan stops
// where the test left it — k batches taken, a full result buffer, and one
// page in each partition's hands — and a second query sent now arrives while
// the first is exactly there, on any box under any load. It returns the
// database, the held result, the rows taken so far, and the table's pages and
// the blocks read of it so far.
func heldScan(t *testing.T, cfg core.Config, k int) (db *DB, res *Result, taken, full, prefix int64) {
	t.Helper()
	mgr := newTestDB(t, 5000)
	mgr2 := sm.NewSharedDisk(mgr.Disk, 8)
	if _, err := mgr2.AttachTable("t", tableSchema(mgr)); err != nil {
		t.Fatal(err)
	}
	mgr2.Disk.ResetStats()
	cfg.ScanParallelism = 2
	db = newDB(mgr2, cfg)
	t.Cleanup(db.Close)
	res, err := db.run(context.Background(), plan.NewTableScan("t", tableSchema(mgr), nil, nil, false), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		b, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		taken += int64(len(b))
	}
	prefix = int64(k + db.rt.Cfg.BufferCapacity + cfg.ScanParallelism)
	waitCount(t, "blocks read by the held scan", prefix, func() int64 { return mgr2.Disk.Stats().Reads })
	return db, res, taken, int64(mgr2.MustTable("t").Heap.NumPages()), prefix
}

// TestCircularScanSharesIO: with OSP, a second scan arriving mid-flight
// must not re-read pages the scanner is currently producing — it attaches
// where the scanner is, and the wrap reads for it the prefix it missed and
// nothing else.
func TestCircularScanSharesIO(t *testing.T) {
	db, res1, taken, full, prefix := heldScan(t, core.DefaultConfig(), 3)
	schema := res1.Schema()
	// Second query (different predicate!) arrives mid-scan.
	res2, err := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(100)), nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res1.Discard(); err != nil || taken+n != 5000 {
		t.Fatalf("host scan returned %d rows, want 5000 (%v)", taken+n, err)
	}
	rows2, err := res2.All()
	if err != nil || len(rows2) != 1 || rows2[0][0].I != 100 {
		t.Fatalf("satellite count: %v %v", rows2, err)
	}
	if reads := db.rt.SM.Disk.Stats().Reads; reads != full+prefix {
		t.Fatalf("%d reads for 2 scans of %d pages, want one scan and the %d-page prefix the second missed", reads, full, prefix)
	}
	if got := db.Stats().SharesByOp[plan.OpTableScan]; got != 1 {
		t.Fatalf("%d circular-scan shares, want 1", got)
	}
}

// TestBaselineNoSharing: with OSP off, the same scenario reads 2 full
// scans, less what the second finds of the first's prefix in the pool.
func TestBaselineNoSharing(t *testing.T) {
	db, res1, taken, full, _ := heldScan(t, core.BaselineConfig(), 3)
	res2, err := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", res1.Schema(), nil, nil, false), []expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing ties the second query to the held one: it runs to its end.
	rows2, err := res2.All()
	if err != nil || len(rows2) != 1 || rows2[0][0].I != 5000 {
		t.Fatalf("second count: %v %v", rows2, err)
	}
	if n, err := res1.Discard(); err != nil || taken+n != 5000 {
		t.Fatalf("first scan returned %d rows, want 5000 (%v)", taken+n, err)
	}
	pool := int64(db.rt.SM.Pool.Capacity())
	if reads := db.rt.SM.Disk.Stats().Reads; reads < 2*full-pool || reads > 2*full {
		t.Fatalf("baseline should read 2 full scans: %d reads, want %d to %d", reads, 2*full-pool, 2*full)
	}
	if db.Stats().SharesByOp[plan.OpTableScan] != 0 {
		t.Fatal("baseline must not share")
	}
}

func TestQueryCancel(t *testing.T) {
	mgr := newTestDB(t, 20000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), scan, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Read one batch then cancel.
	if _, err := res.Next(); err != nil {
		t.Fatal(err)
	}
	res.Cancel()
	// Engine must stay usable.
	res2, _ := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	rows, err := res2.All()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 20000 {
		t.Fatalf("count after cancel: %v", rows[0])
	}
}

func TestUnknownTableFails(t *testing.T) {
	mgr := newTestDB(t, 10)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	scan := plan.NewTableScan("missing", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), scan, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err == nil {
		t.Fatal("scan of missing table should error")
	}
}
