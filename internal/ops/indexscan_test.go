package ops

import (
	"context"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
	"qpipe/internal/workload/tpch"
)

func newIndexedRT(t *testing.T, n int, cfg core.Config) *core.Runtime {
	t.Helper()
	rt := newRT(t, n, cfg)
	if err := rt.SM.BuildClustered("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := rt.SM.BuildUnclustered("t", "g"); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestClusteredOrderedScanThroughEngine(t *testing.T) {
	rt := newIndexedRT(t, 400, core.DefaultConfig())
	p := plan.NewIndexScan("t", testSchema(), "k", tuple.Value{}, tuple.Value{}, true, true, nil, nil)
	rows := runPlan(t, rt, p)
	if len(rows) != 400 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := range rows {
		if rows[i][0].I != int64(i) {
			t.Fatalf("order violated at %d: %v", i, rows[i])
		}
	}
}

func TestUnclusteredOrderedFetch(t *testing.T) {
	rt := newIndexedRT(t, 140, core.DefaultConfig())
	// Ordered unclustered scan: fetch in key order rather than page order.
	p := plan.NewIndexScan("t", testSchema(), "g", tuple.I64(0), tuple.I64(6), false, true, nil, nil)
	rows := runPlan(t, rt, p)
	if len(rows) != 140 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].I > rows[i][1].I {
			t.Fatalf("key order violated at %d", i)
		}
	}
}

// TestMaterializedOrderedShare exercises the §4.3.2 materialization
// function: a selective order-sensitive scan arrives while an identicalish
// ordered scan is mid-flight; it must piggyback (suffix materialized,
// prefix read fresh) and still deliver complete results in key order.
func TestMaterializedOrderedShare(t *testing.T) {
	rt := newIndexedRT(t, 6000, core.DefaultConfig())

	// Q1: unfiltered ordered scan (hosts the scanner).
	q1Plan := plan.NewIndexScan("t", testSchema(), "k", tuple.Value{}, tuple.Value{}, true, true, nil, nil)
	q1, err := rt.Submit(context.Background(), q1Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Let Q1 progress a bit, then see it held mid-flight by its unread result.
	got := int64(0)
	for got < 1500 {
		b, err := q1.Result.Get()
		if err != nil {
			t.Fatal(err)
		}
		got += int64(len(b))
	}
	eventually(t, "Q1's scan blocked on its unread result", func() bool { return q1.Result.Snapshot().PutBlocked })
	// Q2: selective ordered scan, different signature (filter differs).
	pred := expr.EQ(expr.Col(1), expr.CInt(3)) // g == 3: 1/7 of rows
	q2Plan := plan.NewIndexScan("t", testSchema(), "k", tuple.Value{}, tuple.Value{}, true, true, pred, nil)
	q2, err := rt.Submit(context.Background(), q2Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Keep draining Q1 concurrently — the host scan must keep moving or
	// the shared scanner (rightly) stalls on its slowest consumer.
	q1Rest := make(chan int64, 1)
	go func() {
		rest, _ := q1.Result.Drain()
		q1Rest <- rest
	}()
	var q2rows []tuple.Tuple
	for {
		b, err := q2.Result.Get()
		if err != nil {
			break
		}
		q2rows = append(q2rows, b...)
	}
	if err := q2.Wait(); err != nil {
		t.Fatal(err)
	}
	// Completeness: 6000/7 rows with g==3, rounded.
	want := 0
	for i := 0; i < 6000; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if len(q2rows) != want {
		t.Fatalf("q2 rows: %d, want %d", len(q2rows), want)
	}
	// Order: strictly ascending k.
	for i := 1; i < len(q2rows); i++ {
		if q2rows[i-1][0].I >= q2rows[i][0].I {
			t.Fatalf("q2 order violated at %d: %v >= %v", i, q2rows[i-1][0], q2rows[i][0])
		}
	}
	// The share must have been recorded.
	if rt.Stats().SharesByOp[plan.OpIndexScan] == 0 {
		t.Fatal("expected a materialized ordered share")
	}
	// Q1 must have been unharmed.
	if rest := <-q1Rest; got+rest != 6000 {
		t.Fatalf("q1 rows: %d", got+rest)
	}
}

// TestSplitPrefixReadsOnlyItsLeaves: the prefix packet of a merge join's
// split (§4.3.2, Figure 9) reads leaves [0, start) of its index and nothing
// else, even while an ordered scan of the same index is in progress that a
// full ordered filtered scan would materialize its suffix from. q1 holds its
// join's scans, q3 an unfiltered ordered scan of LINEITEM; q2, the same join
// as q1, splits onto q1's LINEITEM scan; and q3 stays held until q2's prefix
// packet has been decided. Every answer is the iterator engine's, and every
// buffer the split made names the join's packet as its reader.
func TestSplitPrefixReadsOnlyItsLeaves(t *testing.T) {
	mgr := wopTPCH(t)
	rt := core.NewRuntime(mgr, wopConfig(func(c *core.Config) { c.ReplayWindow = 1 }), All())
	defer rt.Close()
	ctx := context.Background()
	join := belowSort(tpch.Q4MergeJoin(tpch.DefaultParams()))
	lineitem := plan.NewIndexScan("LINEITEM", tpch.LineitemSchema, "l_orderkey", tuple.Value{}, tuple.Value{}, true, true, nil, nil)
	submit := func(pl plan.Node) *core.Query {
		q, err := rt.Submit(ctx, pl)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	got := make(map[*core.Query][]tuple.Tuple)
	heldAfterOne := func(q *core.Query) {
		b, err := q.Result.Get()
		if err != nil {
			t.Fatal(err)
		}
		got[q] = b
	}
	q1 := submit(join)
	heldAfterOne(q1)
	q3 := submit(lineitem)
	heldAfterOne(q3)
	q2 := submit(join)
	eventually(t, "q2's join split onto q1's scan", func() bool {
		return rt.Stats().EngineStats[plan.OpMergeJoin].Shares[core.ShareSplit] == 1
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(map[*core.Query]error)
	drain := func(q *core.Query) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rest, err := sdDrain(q)
			mu.Lock()
			got[q], errs[q] = append(got[q], rest...), err
			mu.Unlock()
		}()
	}
	drain(q1)
	drain(q2)
	// The split dispatches the prefix, and once its enqueue — and with it
	// the packet's decision — has returned, a fresh read of the join's
	// other input.
	eventually(t, "q2's prefix packet decided", func() bool {
		pkts := q2.Packets()
		for i, pkt := range pkts {
			if is, ok := pkt.Node.(*plan.IndexScan); ok && is.LeafTo >= 0 {
				return len(pkts) > i+1
			}
		}
		return false
	})
	drain(q3)
	wg.Wait()

	oracle := volcano.New(mgr)
	for _, c := range []struct {
		name string
		q    *core.Query
		pl   plan.Node
	}{{"q1", q1, join}, {"q2", q2, join}, {"q3", q3, lineitem}} {
		if err := errs[c.q]; err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := oracle.Run(ctx, c.pl)
		if err != nil {
			t.Fatal(err)
		}
		sdCompare(t, c.name, c.pl, got[c.q], sdSorted(want))
		readersArePackets(t, c.q)
	}
}

// TestSpikeNoShareWithoutFilter: an unfiltered order-sensitive scan
// arriving mid-flight must NOT share (true spike — materializing the whole
// relation would save nothing).
func TestSpikeNoShareWithoutFilter(t *testing.T) {
	rt := newIndexedRT(t, 5000, core.DefaultConfig())
	mk := func(proj []int) plan.Node {
		return plan.NewIndexScan("t", testSchema(), "k", tuple.Value{}, tuple.Value{}, true, true, nil, proj)
	}
	q1, _ := rt.Submit(context.Background(), mk(nil))
	got := int64(0)
	for got < 1500 {
		b, err := q1.Result.Get()
		if err != nil {
			t.Fatal(err)
		}
		got += int64(len(b))
	}
	eventually(t, "Q1's scan blocked on its unread result", func() bool { return q1.Result.Snapshot().PutBlocked })
	// Different projection -> different signature, no filter -> spike.
	q2, _ := rt.Submit(context.Background(), mk([]int{0}))
	n2, err := q2.Result.Drain()
	if err != nil || n2 != 5000 {
		t.Fatalf("q2: %d %v", n2, err)
	}
	if rt.Stats().SharesByOp[plan.OpIndexScan] != 0 {
		t.Fatal("spike scan must not share")
	}
	q1.Result.Drain()
}
