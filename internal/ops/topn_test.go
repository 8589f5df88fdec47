package ops

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
)

// topN is a Sort over the test table that keeps n rows. The table's columns
// are k (unique), g = k % 7 (ties) and v = k as a float.
func topN(keys []int, desc bool, n int64, filter expr.Pred) *plan.Sort {
	s := plan.NewSort(plan.NewTableScan("t", testSchema(), filter, nil, false), keys, desc)
	s.Limit = n
	return s
}

func keyString(r tuple.Tuple, keys []int) string {
	return fmt.Sprint(r.Project(keys))
}

// A Top-N is the iterator engine's full sort, truncated: the same rows in
// the same order on a total order, and on ties the same key columns.
func TestTopNMatchesSortThenTruncate(t *testing.T) {
	const rows = 2000
	for _, par := range []int{1, 4} {
		rt := newRT(t, rows, parCfg(par))
		for _, tc := range []struct {
			name   string
			keys   []int
			desc   bool
			n      int64
			filter expr.Pred
			total  bool // the keys order the rows totally
		}{
			{"unique key", []int{0}, false, 10, nil, true},
			{"unique key, descending", []int{0}, true, 25, nil, true},
			{"multi-key, descending", []int{1, 0}, true, 40, expr.GT(expr.Col(2), expr.CFloat(100)), true},
			{"ties on the key", []int{1}, false, 500, nil, false},
			{"ties on the key, descending", []int{1}, true, 3, nil, false},
			{"n above the input", []int{2}, false, 5000, expr.LT(expr.Col(0), expr.CInt(300)), true},
			{"n is the input", []int{0}, true, 300, expr.LT(expr.Col(0), expr.CInt(300)), true},
			{"empty input", []int{0}, false, 10, expr.LT(expr.Col(0), expr.CInt(-1)), true},
			{"n = 1", []int{2, 1}, true, 1, nil, true},
		} {
			p := topN(tc.keys, tc.desc, tc.n, tc.filter)
			got, want := runPlan(t, rt, p), oracleRows(t, rt, p)
			if len(got) != len(want) {
				t.Fatalf("%s (parallelism %d): %d rows, sort-then-truncate has %d", tc.name, par, len(got), len(want))
			}
			for i := range got {
				g, w := fmt.Sprint(got[i]), fmt.Sprint(want[i])
				if !tc.total {
					g, w = keyString(got[i], tc.keys), keyString(want[i], tc.keys)
				}
				if g != w {
					t.Fatalf("%s (parallelism %d): row %d is %s, sort-then-truncate has %s", tc.name, par, i, g, w)
				}
			}
		}
	}
}

// On one input order the heap keeps exactly what a stable sort followed by
// a truncation keeps: among equal keys, the earliest arrivals, in arrival
// order. (A serial ordered scan fixes the input order.)
func TestTopNIsStableOnASerialInput(t *testing.T) {
	rt := newRT(t, 700, parCfg(1))
	for _, n := range []int64{1, 7, 50, 699, 700} {
		s := plan.NewSort(plan.NewTableScan("t", testSchema(), nil, nil, true), []int{1}, n%2 == 0)
		s.Limit = n
		if got, want := runPlan(t, rt, s), oracleRows(t, rt, s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: the heap and the stable sort disagree on ties\n got %v\nwant %v", n, got, want)
		}
	}
}

// A Top-N creates no temp file and writes nothing: no run, no sorted file.
func TestTopNWritesNoTempFile(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	nextTemp := func() string { return rt.SM.TempName("probe") }
	before, writes := nextTemp(), rt.SM.Disk.Stats().Writes
	if got := runPlan(t, rt, topN([]int{2}, true, 10, nil)); len(got) != 10 || got[0][0].I != 2999 {
		t.Fatalf("top 10: %v", got)
	}
	var seqBefore, seqAfter int
	fmt.Sscanf(before, "tmp:probe:%d", &seqBefore)
	fmt.Sscanf(nextTemp(), "tmp:probe:%d", &seqAfter)
	if seqAfter != seqBefore+1 {
		t.Fatalf("the Top-N reserved %d temp names", seqAfter-seqBefore-1)
	}
	if w := rt.SM.Disk.Stats().Writes; w != writes {
		t.Fatalf("the Top-N wrote %d blocks", w-writes)
	}
	// The same sort without the limit does both (the control).
	runPlan(t, rt, topN([]int{2}, true, 0, nil))
	if w := rt.SM.Disk.Stats().Writes; w == writes {
		t.Fatal("the external sort wrote nothing: the counters do not see temp files")
	}
}

// Two equal Top-N packets share by the default rule for as long as the host
// consumes its input; two that differ only in n have different signatures
// and share below the sort, at the scan. The host is mid-input for as long as
// the test likes: a bare scan of the table, its result unread, holds the
// scanner every other scan of the table rides.
func TestTopNSharing(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	ctx := context.Background()
	submit := func(n int64) *core.Query {
		t.Helper()
		q, err := rt.Submit(ctx, topN([]int{2}, true, n, nil))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	drain := func(q *core.Query) []tuple.Tuple {
		t.Helper()
		rows, err := sdDrain(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hold := func() *core.Query {
		t.Helper()
		held, _ := startBlockedScan(t, rt)
		eventually(t, "the held scan blocked on its full buffer", func() bool { return held.Result.Snapshot().PutBlocked })
		return held
	}

	held := hold()
	host := submit(10)
	eventually(t, "the host's scan riding the held one", func() bool { return rt.Stats().SharesByOp[plan.OpTableScan] == 1 })
	sat := submit(10)
	drain(held)
	a, b := drain(host), drain(sat)
	if len(a) != 10 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("host and satellite disagree:\n%v\n%v", a, b)
	}
	// Packets are dispatched leaves first, so the satellite's scan attached
	// to the held scan before its sort attached to the host's sort.
	if got := host.Stats.HostedSatellites.Load(); got < 1 {
		t.Fatal("the host hosted no satellite")
	}
	if got := rt.Stats().SharesByOp[plan.OpSort]; got != 1 {
		t.Fatalf("sort shares: %d, want 1", got)
	}

	scanShares := rt.Stats().SharesByOp[plan.OpTableScan]
	held = hold()
	ten, twenty := submit(10), submit(20)
	drain(held)
	a, b = drain(ten), drain(twenty)
	if len(a) != 10 || len(b) != 20 || fmt.Sprint(a) != fmt.Sprint(b[:10]) {
		t.Fatalf("top 10 and top 20 disagree:\n%v\n%v", a, b)
	}
	if got := rt.Stats().SharesByOp[plan.OpSort]; got != 1 {
		t.Fatalf("sorts that differ in n shared at the sort (%d shares)", got)
	}
	if got := rt.Stats().SharesByOp[plan.OpTableScan] - scanShares; got != 2 {
		t.Fatalf("sorts that differ in n: %d of their two scans rode the table's one page stream", got)
	}
}

// drainTogether reads every query's result at once (a rider's rows and its
// host's come through one scanner) and returns each one's rows.
func drainTogether(t *testing.T, qs ...*core.Query) [][]tuple.Tuple {
	t.Helper()
	rows, errs := make([][]tuple.Tuple, len(qs)), make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = sdDrain(q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return rows
}

// oracleRows is p's answer from the iterator engine.
func oracleRows(t *testing.T, rt *core.Runtime, p plan.Node) []tuple.Tuple {
	t.Helper()
	rows, err := volcano.New(rt.SM).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// boundMidInput sends p, a Top-N over a scan of t that is not a bare scan,
// while a bare scan of t, its result unread, holds the table's scanner; then
// reads the held scan on, a batch at a time, until p's heap has published a
// bound, and lets the scanner block again. p is then mid-input with its bound
// in force, and no page moves until the test reads the held scan.
func boundMidInput(t *testing.T, rt *core.Runtime, p plan.Node) (held, q *core.Query) {
	t.Helper()
	held, _ = startBlockedScan(t, rt)
	blocked := func() bool { // (full: the scanner has put again since the last read)
		st := held.Result.Snapshot()
		return st.PutBlocked && st.State == tbuf.StateFull
	}
	eventually(t, "the held scan blocked on its full buffer", blocked)
	q, err := rt.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the Top-N's bound installed", func() bool { return q.Stats.HandOvers[core.HandOverInstalled].Load() == 1 })
	published := func() bool { return q.Packets()[1].Handed().(*topBound).Load() != nil } // the scan's packet
	for !published() {
		if _, err := held.Result.Get(); err != nil {
			t.Fatal(err)
		}
		eventually(t, "the scanner served a page", func() bool { return published() || blocked() })
	}
	eventually(t, "the held scan blocked again", blocked)
	return held, q
}

// A scan consumer that rides the scanner of a bounded one keeps every row:
// the bound lives in the Top-N's scan packet, which is sealed, so a scan of
// the same signature arriving after it runs as a consumer of its own.
func TestTopNBoundSparesARider(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	filter := expr.GE(expr.Col(0), expr.CInt(100))
	top := topN([]int{2}, true, 10, filter)
	held, q := boundMidInput(t, rt, top)
	rider, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), filter, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	rows := drainTogether(t, held, q, rider)
	if want := oracleRows(t, rt, top); fmt.Sprint(rows[1]) != fmt.Sprint(want) {
		t.Fatalf("the Top-N: %v, the iterator engine: %v", rows[1], want)
	}
	if len(rows[2]) != 2900 || rider.Stats.BoundRows.Load() != 0 {
		t.Fatalf("the rider: %d rows (%d left out by a bound), want 2900", len(rows[2]), rider.Stats.BoundRows.Load())
	}
	if rider.Stats.SatelliteAttaches() != 1 || q.Stats.BoundRows.Load() == 0 {
		t.Fatalf("the rider shared %d times; the Top-N's bound left out %d rows", rider.Stats.SatelliteAttaches(), q.Stats.BoundRows.Load())
	}
}

// A Top-N of the same signature attaching to a bounded one mid-input gets the
// host's rows: the host's answer is what the bound kept it building.
func TestTopNBoundWithASortSatellite(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	top := topN([]int{1, 0}, false, 20, expr.LT(expr.Col(2), expr.CFloat(2500)))
	held, host := boundMidInput(t, rt, top)
	sat, err := rt.Submit(context.Background(), top)
	if err != nil {
		t.Fatal(err)
	}
	if got := sat.Stats.Shares[core.ShareAttached].Load(); got != 1 {
		t.Fatalf("the second Top-N attached %d times", got)
	}
	rows, want := drainTogether(t, held, host, sat), oracleRows(t, rt, top)
	if fmt.Sprint(rows[1]) != fmt.Sprint(want) || fmt.Sprint(rows[2]) != fmt.Sprint(want) {
		t.Fatalf("host %v\nsatellite %v\nthe iterator engine %v", rows[1], rows[2], want)
	}
	if host.Stats.BoundRows.Load() == 0 {
		t.Fatal("the host's bound left out no row")
	}
}

// A Top-N whose scan packet shares its output is refused the bound, under the
// reason: absorbed as the satellite of a held scan of its signature (inside
// that one's replay window), or hosting a scan of its signature that attached
// while the Top-N's own packet was held at the gate in front of the sort
// µEngine's operator. The answers stay the iterator engine's and nothing is
// left out.
func TestTopNBoundRefusedWhenItsScanShares(t *testing.T) {
	t.Run("satellite", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.ReplayWindow = -1
		rt := newRT(t, 3000, cfg)
		held, _ := startBlockedScan(t, rt)
		eventually(t, "the held scan blocked on its full buffer", func() bool { return held.Result.Snapshot().PutBlocked })
		top := topN([]int{2}, true, 10, nil)
		q, err := rt.Submit(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "the bound refused", func() bool { return q.Stats.HandOvers[core.HandOverSatellite].Load() == 1 })
		rows := drainTogether(t, held, q)
		if want := oracleRows(t, rt, top); fmt.Sprint(rows[1]) != fmt.Sprint(want) || q.Stats.BoundRows.Load() != 0 {
			t.Fatalf("the Top-N: %v (%d rows left out), the iterator engine: %v", rows[1], q.Stats.BoundRows.Load(), want)
		}
	})
	t.Run("ever-hosted", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.ReplayWindow = -1
		// The sort µEngine's operator waits at a gate: the Top-N's packet is
		// running, and has handed nothing down, until the test opens it.
		gate, opened := make(chan struct{}), sync.Once{}
		open := func() { opened.Do(func() { close(gate) }) }
		operators := All()
		for i, op := range operators {
			if op.Op() == plan.OpSort {
				operators[i] = gatedOp{op, gate}
			}
		}
		rt := newRTOver(t, 3000, cfg, operators)
		t.Cleanup(open)
		filter := expr.GE(expr.Col(0), expr.CInt(100))
		top := topN([]int{2}, true, 10, filter)
		q, err := rt.Submit(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		rider, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), filter, nil, false))
		if err != nil {
			t.Fatal(err)
		}
		if got := rider.Stats.Shares[core.ShareAttached].Load(); got != 1 {
			t.Fatalf("the plain scan attached %d times to the Top-N's", got)
		}
		open()
		rows := drainTogether(t, q, rider)
		if got := q.Stats.HandOvers[core.HandOverEverHosted].Load(); got != 1 {
			t.Fatalf("the bound's hand-overs: %v", &q.Stats.HandOvers)
		}
		if want := oracleRows(t, rt, top); fmt.Sprint(rows[0]) != fmt.Sprint(want) || len(rows[1]) != 2900 {
			t.Fatalf("the Top-N: %v, the iterator engine: %v; the plain scan: %d rows", rows[0], want, len(rows[1]))
		}
	})
}

// gatedOp is an operator whose every packet waits for gate to close before it
// runs.
type gatedOp struct {
	core.Operator
	gate <-chan struct{}
}

func (g gatedOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	<-g.gate
	return g.Operator.Run(rt, pkt)
}

// Only a scan served page by page is handed a bound: a Top-N over a
// projection counts not-a-scan and builds every row; a sort without a limit
// hands nothing down.
func TestTopNBoundNeedsAPagedScan(t *testing.T) {
	rt := newRT(t, 1000, core.DefaultConfig())
	scan := plan.NewTableScan("t", testSchema(), nil, nil, false)
	over := plan.NewSort(plan.NewProject(scan, []expr.Expr{expr.Col(2), expr.Col(0)}, []string{"v", "k"}), []int{0}, true)
	over.Limit = 5
	for _, tc := range []struct {
		p   plan.Node
		why core.HandOver
		n   int64
	}{{over, core.HandOverNotAScan, 1}, {plan.NewSort(scan, []int{0}, true), core.HandOverInstalled, 0}} {
		q, err := rt.Submit(context.Background(), tc.p)
		if err != nil {
			t.Fatal(err)
		}
		rows := drainTogether(t, q)
		if want := oracleRows(t, rt, tc.p); fmt.Sprint(rows[0]) != fmt.Sprint(want) {
			t.Fatalf("%s: %v, the iterator engine: %v", plan.Explain(tc.p), rows[0], want)
		}
		if got := q.Stats.HandOvers[tc.why].Load(); got != tc.n || q.Stats.BoundRows.Load() != 0 {
			t.Fatalf("%s: %d hand-overs %s, want %d", plan.Explain(tc.p), got, tc.why, tc.n)
		}
	}
}

// The bound leaves the answer the iterator engine's whatever the first key's
// kind — INT, FLOAT, TEXT, or INT and FLOAT in one column (pages of one kind,
// with a number vector, and pages of both, without) — in either direction,
// with and without a projection and a filter, at parallelism 1 and 4 with OSP
// on and off. The keys end in the unique id, so the answer is one list.
func TestTopNBoundMatchesIteratorEngine(t *testing.T) {
	schema := tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("i", tuple.KindInt), tuple.Col("f", tuple.KindFloat),
		tuple.Col("s", tuple.KindString), tuple.Col("m", tuple.KindFloat))
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 64})
	if _, err := mgr.CreateTable("b", schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	rows := make([]tuple.Tuple, 3000)
	for j, id := range rng.Perm(len(rows)) {
		m := tuple.I64(int64(rng.Intn(100)))
		if j/60%3 == 1 || j/60%3 == 2 && rng.Intn(2) == 0 {
			m = tuple.F64(float64(rng.Intn(400)) / 4)
		}
		rows[j] = tuple.Tuple{tuple.I64(int64(id)), tuple.I64(int64(rng.Intn(40))), tuple.F64(float64(rng.Intn(400)-200) / 4),
			tuple.Str(fmt.Sprintf("s%02d", rng.Intn(50))), m}
	}
	if err := mgr.Load("b", rows); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(mgr, core.DefaultConfig(), All())
	t.Cleanup(rt.Close)
	for _, col := range []int{1, 2, 3, 4} {
		for _, desc := range []bool{false, true} {
			var bound int64
			for i, n := range []int64{1, 25, 200} {
				var filter expr.Pred
				if i == 1 {
					filter = expr.GE(expr.Col(0), expr.CInt(500))
				}
				var project []int
				keys := []int{col, 0}
				if i != 0 {
					project, keys = []int{col, 3, 0}, []int{0, 2}
				}
				top := plan.NewSort(plan.NewTableScan("b", schema, filter, project, false), keys, desc)
				top.Limit = n
				want := fmt.Sprint(oracleRows(t, rt, top))
				for _, par := range []int{1, 4} {
					for _, noOSP := range []bool{false, true} {
						q, err := rt.SubmitOpts(context.Background(), top, core.QueryOptions{Parallelism: par, DisableOSP: noOSP})
						if err != nil {
							t.Fatal(err)
						}
						got := drainTogether(t, q)[0]
						if fmt.Sprint(got) != want {
							t.Fatalf("column %d, desc %v, top %d, P=%d, osp off %v:\n got %v\nwant %v", col, desc, n, par, noOSP, got, want)
						}
						if q.Stats.HandOvers[core.HandOverInstalled].Load() != 1 {
							t.Fatalf("column %d, desc %v, top %d, P=%d, osp off %v: hand-overs %v", col, desc, n, par, noOSP, &q.Stats.HandOvers)
						}
						bound += q.Stats.BoundRows.Load()
					}
				}
			}
			if bound == 0 {
				t.Errorf("column %d, desc %v: the bound left out no row", col, desc)
			}
		}
	}
}

// On the benchmark's shape — 100 000 orders whose amount is a whole number
// below 997, `WHERE amount > 900 ORDER BY amount DESC, oid DESC LIMIT 10` at
// parallelism 2 — the bound keeps at least three quarters of the rows the
// filter keeps from being built: once the heap holds ten rows of amount 996,
// no row below 996 is built, and before that at most the pages each partition
// ran ahead of the heap. A count, not a timing: the log line is the number of
// rows built.
func TestTopNBoundOnTheBenchmarksShape(t *testing.T) {
	schema := tuple.NewSchema(tuple.Col("oid", tuple.KindInt), tuple.Col("cust", tuple.KindInt), tuple.Col("region", tuple.KindInt),
		tuple.Col("priority", tuple.KindInt), tuple.Col("amount", tuple.KindFloat))
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 8192}, PoolPages: 1024})
	if _, err := mgr.CreateTable("orders", schema); err != nil {
		t.Fatal(err)
	}
	const orders = 100000
	rng := rand.New(rand.NewSource(1))
	rows, kept := make([]tuple.Tuple, orders), int64(0)
	for i, oid := range rng.Perm(orders) {
		amount := rng.Intn(997)
		rows[i] = tuple.Tuple{tuple.I64(int64(oid)), tuple.I64(int64(rng.Intn(orders / 15))), tuple.I64(int64(rng.Intn(7))),
			tuple.I64(int64(rng.Intn(5))), tuple.F64(float64(amount))}
		if amount > 900 {
			kept++
		}
	}
	if err := mgr.Load("orders", rows); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(mgr, core.DefaultConfig(), All())
	t.Cleanup(rt.Close)
	top := plan.NewSort(plan.NewTableScan("orders", schema, expr.GT(expr.Col(4), expr.CFloat(900)), []int{0, 4}, false), []int{1, 0}, true)
	top.Limit = 10
	want := fmt.Sprint(oracleRows(t, rt, top))
	for _, visit := range []string{"cold", "warm"} {
		q, err := rt.SubmitOpts(context.Background(), top, core.QueryOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(drainTogether(t, q)[0]); got != want {
			t.Fatalf("%s: %s, the iterator engine: %s", visit, got, want)
		}
		bound := q.Stats.BoundRows.Load()
		t.Logf("%s: %d of the %d rows the filter keeps built", visit, kept-bound, kept)
		if 4*bound < 3*kept {
			t.Errorf("%s: the bound left out %d of the %d rows the filter keeps, want three quarters", visit, bound, kept)
		}
	}
}
