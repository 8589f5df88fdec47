package ops

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/page"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

func testSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("k", tuple.KindInt),
		tuple.Col("g", tuple.KindInt),
		tuple.Col("v", tuple.KindFloat),
	)
}

func newRT(t *testing.T, n int, cfg core.Config) *core.Runtime {
	t.Helper()
	return newRTOver(t, n, cfg, All())
}

// newRTOver is newRT with the given operators.
func newRTOver(t *testing.T, n int, cfg core.Config, operators []core.Operator) *core.Runtime {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 32})
	if _, err := mgr.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.I64(int64(i % 7)), tuple.F64(float64(i))}
	}
	if err := mgr.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(mgr, cfg, operators)
	t.Cleanup(rt.Close)
	return rt
}

func runPlan(t *testing.T, rt *core.Runtime, p plan.Node) []tuple.Tuple {
	t.Helper()
	return runPar(t, rt, p, 0)
}

// runPar runs p with the query-level fan-out par (0: the runtime's): every
// parallel operator of the plan, scans included, splits par ways.
func runPar(t *testing.T, rt *core.Runtime, p plan.Node, par int) []tuple.Tuple {
	t.Helper()
	q, err := rt.SubmitOpts(context.Background(), p, core.QueryOptions{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	var out []tuple.Tuple
	for {
		b, err := q.Result.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	return out
}

// eventually waits for a state the engine reaches on its own — a packet its
// µEngine has picked up — before the test goes on. No test asserts how long
// that took.
func eventually(t *testing.T, what string, reached func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !reached(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after 20 s", what)
		}
	}
}

func TestCursorPeekNext(t *testing.T) {
	b := tbuf.New(4)
	b.Put(tbuf.Batch{{tuple.I64(1)}, {tuple.I64(2)}})
	b.Close(nil)
	c := newCursor(b)
	p1, ok, err := c.peek()
	if err != nil || !ok || p1[0].I != 1 {
		t.Fatalf("peek: %v %v %v", p1, ok, err)
	}
	// Peek is idempotent.
	p2, _, _ := c.peek()
	if p2[0].I != 1 {
		t.Fatal("peek consumed")
	}
	n1, _, _ := c.next()
	n2, _, _ := c.next()
	if n1[0].I != 1 || n2[0].I != 2 {
		t.Fatalf("next: %v %v", n1, n2)
	}
	if _, ok, _ := c.next(); ok {
		t.Fatal("next past EOF")
	}
}

func TestEmitterBatching(t *testing.T) {
	b := tbuf.New(64)
	so := tbuf.NewSharedOut(b, -1)
	em := &emitter{out: so, size: 3} // no packet: batching only, Put never fails
	for i := 0; i < 7; i++ {
		if err := em.add(tuple.Tuple{tuple.I64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := em.flush(); err != nil {
		t.Fatal(err)
	}
	so.Close(nil)
	var sizes []int
	for {
		batch, err := b.Get()
		if err == io.EOF {
			break
		}
		sizes = append(sizes, len(batch))
	}
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("batch sizes: %v", sizes)
	}
}

func TestScanOrderedVsUnordered(t *testing.T) {
	rt := newRT(t, 500, core.DefaultConfig())
	ordered := runPlan(t, rt, plan.NewTableScan("t", testSchema(), nil, nil, true))
	if len(ordered) != 500 {
		t.Fatalf("ordered scan rows: %d", len(ordered))
	}
	for i := range ordered {
		if ordered[i][0].I != int64(i) {
			t.Fatalf("ordered scan out of order at %d: %v", i, ordered[i])
		}
	}
	unordered := runPlan(t, rt, plan.NewTableScan("t", testSchema(), nil, nil, false))
	if len(unordered) != 500 {
		t.Fatalf("unordered scan rows: %d", len(unordered))
	}
}

func TestSortDescending(t *testing.T) {
	rt := newRT(t, 200, core.DefaultConfig())
	scan := plan.NewTableScan("t", testSchema(), nil, nil, false)
	rows := runPlan(t, rt, plan.NewSort(scan, []int{0}, true))
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I < rows[i][0].I {
			t.Fatalf("descending sort violated at %d", i)
		}
	}
}

func TestSortExternalRuns(t *testing.T) {
	// More rows than sortRunSize forces multi-run external merge.
	rt := newRT(t, sortRunSize+2500, core.DefaultConfig())
	scan := plan.NewTableScan("t", testSchema(), nil, nil, false)
	rows := runPlan(t, rt, plan.NewSort(scan, []int{2}, false))
	if len(rows) != sortRunSize+2500 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][2].F > rows[i][2].F {
			t.Fatalf("external sort out of order at %d", i)
		}
	}
}

func TestSortFileReuseSatellite(t *testing.T) {
	// A second identical sort arriving during the host's emit phase must
	// reuse the materialized sorted file (phase-2 materialization reuse),
	// whichever of the two finishes first, and leave no temp file behind.
	// Each is held by its unread result: the host past its replay window with
	// a third of its file still to stream, the satellite's file streamer
	// with most of it.
	for _, hostFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("host-first=%v", hostFirst), func(t *testing.T) {
			rt := newRT(t, 3000, core.DefaultConfig())
			mgr := rt.SM
			mk := func() plan.Node {
				return plan.NewSort(plan.NewTableScan("t", testSchema(), nil, nil, false), []int{0}, false)
			}
			q1, err := rt.Submit(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			consumed := int64(0)
			for consumed < 2000 {
				b, err := q1.Result.Get()
				if err != nil {
					t.Fatal(err)
				}
				consumed += int64(len(b))
			}
			eventually(t, "the host sort blocked on its unread result", func() bool { return q1.Result.Snapshot().PutBlocked })
			q2, err := rt.Submit(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			first, err := q2.Result.Get()
			if err != nil {
				t.Fatal(err)
			}
			eventually(t, "the file streamer blocked on the satellite's unread result", func() bool { return q2.Result.Snapshot().PutBlocked })
			drainHost := func() {
				rest, err := q1.Result.Drain()
				if err != nil || consumed+rest != 3000 {
					t.Fatalf("host rows: %d %v", consumed+rest, err)
				}
				if err := q1.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if hostFirst {
				// The host's Run returns under the satellite: the sorted
				// file has left the host's packet for the satellite to read.
				drainHost()
			}
			n2, err := q2.Result.Drain()
			if err != nil || int64(len(first))+n2 != 3000 {
				t.Fatalf("satellite rows: %d %v", int64(len(first))+n2, err)
			}
			if err := q2.Wait(); err != nil {
				t.Fatal(err)
			}
			if !hostFirst {
				drainHost()
			}
			if rt.Stats().SharesByOp[plan.OpSort] != 1 {
				t.Fatalf("sort shares: %v", rt.Stats().SharesByOp)
			}
			// The host drops its runs as its Run returns, and the sorted file
			// goes with the last of host and satellite, before it completes.
			if files := mgr.Disk.FilesWithPrefix("tmp:"); len(files) != 0 {
				t.Fatalf("temp files left after both finished: %v", files)
			}
		})
	}
}

// TestSortReuseEligibility holds a host sort in phase 2 — by its unread
// result, past the replay window — and sends an identical sort, which reuses
// the host's sorted file only if core's eligibility rule lets the two share
// at all: another query, a host not cancelled, OSP on for both. A cancelled
// host is cancelled the way OSP cancels the subtree of a packet that became a
// satellite: its own stream ends early, still in order.
func TestSortReuseEligibility(t *testing.T) {
	const n = 3000
	mk := func() plan.Node {
		return plan.NewSort(plan.NewTableScan("t", testSchema(), nil, nil, false), []int{0}, false)
	}
	drain := func(b *tbuf.Buffer) []tuple.Tuple {
		var out []tuple.Tuple
		for {
			batch, err := b.Get()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, batch...)
		}
	}
	inOrder := func(rows []tuple.Tuple) bool {
		for i, r := range rows {
			if r[0].I != int64(i) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name       string
		hostOpts   core.QueryOptions
		cancelHost bool
		sameQuery  bool
		shares     int64
	}{
		{name: "eligible", shares: 1},
		{name: "host-without-osp", hostOpts: core.QueryOptions{DisableOSP: true}},
		{name: "host-cancelled", cancelHost: true},
		{name: "same-query", sameQuery: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t, n, core.DefaultConfig())
			q1, err := rt.SubmitOpts(context.Background(), mk(), tc.hostOpts)
			if err != nil {
				t.Fatal(err)
			}
			var hostRows []tuple.Tuple
			for len(hostRows) < 2000 {
				b, err := q1.Result.Get()
				if err != nil {
					t.Fatal(err)
				}
				hostRows = append(hostRows, b...)
			}
			eventually(t, "the host sort blocked on its unread result", func() bool { return q1.Result.Snapshot().PutBlocked })
			if tc.cancelHost {
				q1.Root.CancelSubtree()
			}
			var rows []tuple.Tuple
			if tc.sameQuery {
				buf, _ := rt.DispatchSubtree(q1.Root, mk())
				rows = drain(buf)
			} else {
				rows = runPlan(t, rt, mk())
			}
			hostRows = append(hostRows, drain(q1.Result)...)
			if err := q1.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(rows) != n || !inOrder(rows) {
				t.Fatalf("second sort: %d rows, in order %v", len(rows), inOrder(rows))
			}
			if !inOrder(hostRows) || len(hostRows) != n && !tc.cancelHost {
				t.Fatalf("host sort: %d rows, in order %v", len(hostRows), inOrder(hostRows))
			}
			if got := rt.Stats().SharesByOp[plan.OpSort]; got != tc.shares {
				t.Fatalf("sort shares: %d, want %d", got, tc.shares)
			}
		})
	}
}

func TestHashJoinPartitionedPath(t *testing.T) {
	// Build side above hashJoinMaxBuild forces the hybrid partitioned path.
	n := hashJoinMaxBuild + 3000
	rt := newRT(t, n, core.DefaultConfig())
	l := plan.NewTableScan("t", testSchema(), nil, []int{0}, false)
	r := plan.NewTableScan("t", testSchema(), expr.LT(expr.Col(0), expr.CInt(100)), []int{0}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	rows := runPlan(t, rt, agg)
	if rows[0][0].I != 100 {
		t.Fatalf("partitioned join count: %v, want 100", rows[0][0])
	}
}

// An aggregation of no rows: grouped, no row; scalar, one row of zeros — by
// the one accumulate path, serial and with sub-workers, whether the scan
// below folds (and the aggregate's input stays empty: the table is held until
// both folds are seen installed) or something stands in between and the input
// is rows.
func TestGroupByEmptyInput(t *testing.T) {
	rt := newRT(t, 1000, core.DefaultConfig())
	specs := []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(2)}, {Kind: expr.AggAvg, Arg: expr.Col(2)}, {Kind: expr.AggMin, Arg: expr.Col(0)}}
	zeros := fmt.Sprint(tuple.Tuple{tuple.I64(0), tuple.F64(0), tuple.F64(0), {}})
	none := expr.LT(expr.Col(0), expr.CInt(-1))
	for _, par := range []int{1, 4} {
		for why, input := range map[core.HandOver]plan.Node{
			core.HandOverInstalled: plan.NewTableScan("t", testSchema(), none, nil, false),
			core.HandOverNotAScan:  plan.NewFilter(plan.NewTableScan("t", testSchema(), nil, nil, false), none),
		} {
			held, _ := startBlockedScan(t, rt)
			var queries [2]*core.Query
			for i, p := range []plan.Node{plan.NewGroupBy(input, []int{1}, specs), plan.NewAggregate(input, specs)} {
				q, err := rt.SubmitOpts(context.Background(), p, core.QueryOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
			}
			eventually(t, fmt.Sprint("two hand-overs ", why), func() bool {
				return queries[0].Stats.HandOvers[why].Load() == 1 && queries[1].Stats.HandOvers[why].Load() == 1
			})
			if _, err := sdDrain(held); err != nil {
				t.Fatal(err)
			}
			grouped, err := sdDrain(queries[0])
			if err != nil || len(grouped) != 0 {
				t.Errorf("parallelism %d, %v: groupby of empty input: %v, %v", par, why, grouped, err)
			}
			scalar, err := sdDrain(queries[1])
			if err != nil || len(scalar) != 1 || fmt.Sprint(scalar[0]) != zeros {
				t.Errorf("parallelism %d, %v: aggregate of empty input: %v, %v, want %s", par, why, scalar, err, zeros)
			}
		}
	}
}

// Five counts with predicates of their own ride one circular scan and fold
// its pages: a held bare scan pins the table's scanner, the five are sent and
// seen attached to it with their folds installed, then the hold is released.
// Each sees every row it asked for exactly once, and the table is read once
// (plus the prefix the held scan was at, which its wrap reads again for the
// five).
func TestCircularScanManyConsumers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ScanParallelism = 2
	rt := newRT(t, 4000, cfg)
	if err := rt.SM.Pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	rt.SM.Disk.ResetStats()
	held, first := startBlockedScan(t, rt)
	const clients = 5
	var queries [clients]*core.Query
	for i := range queries {
		// Different predicates -> page-level sharing only.
		p := plan.NewAggregate(
			plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(int64(i))), nil, false),
			[]expr.AggSpec{{Kind: expr.AggCount}})
		q, err := rt.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	eventually(t, "five scans attached, five folds installed", func() bool {
		st := rt.Stats()
		return st.SharesByOp[plan.OpTableScan] == clients && st.Folds == clients
	})
	if rows, err := sdDrain(held); err != nil || int(first)+len(rows) != 4000 {
		t.Fatalf("the held scan: %d rows after its first %d, %v", len(rows), first, err)
	}
	for i, q := range queries {
		rows, err := sdDrain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].I != int64(4000-i) {
			t.Errorf("consumer %d counted %v, want %d", i, rows, 4000-i)
		}
		// A page or two served between the attach and the hand-over reached
		// the count as rows; the rest never were rows.
		folded, built := q.Stats.FoldedRows.Load(), q.Packets()[1].Out.Produced()
		if folded == 0 || folded+built != int64(4000-i) {
			t.Errorf("consumer %d: %d rows folded and %d built, want %d together", i, folded, built, 4000-i)
		}
		for why := range q.Stats.HandOvers {
			if n := q.Stats.HandOvers[why].Load(); (n != 0) != (core.HandOver(why) == core.HandOverInstalled) || n > 1 {
				t.Errorf("consumer %d: %d hand-overs ended %v, want its one fold installed and nothing else", i, n, core.HandOver(why))
			}
		}
	}
	pages := rt.SM.MustTable("t").Heap.NumPages()
	prefix := int64(1 + cfg.BufferCapacity + cfg.ScanParallelism) // wop_test.go: what a held scan had read
	if reads := rt.SM.Disk.Stats().Reads; reads < pages || reads > pages+prefix {
		t.Errorf("%d blocks read for six scans of a %d-page table, want one scan and at most the held prefix of %d", reads, pages, prefix)
	}
	// The runtime sums a query's hand-overs when the query has finished.
	eventually(t, "five folds installed, summed", func() bool {
		st := rt.Stats()
		return st.Folds == clients && st.HandOvers[core.HandOverInstalled] == clients
	})
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	rt := newRT(t, 70, core.DefaultConfig())
	// Join on g (7 groups of 10): 7 * 10 * 10 = 700 rows.
	l := plan.NewSort(plan.NewTableScan("t", testSchema(), nil, []int{1, 0}, false), []int{0}, false)
	r := plan.NewSort(plan.NewTableScan("t", testSchema(), nil, []int{1, 2}, false), []int{0}, false)
	j := plan.NewMergeJoin(l, r, 0, 0, false)
	rows := runPlan(t, rt, plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}}))
	if rows[0][0].I != 700 {
		t.Fatalf("merge join with dups: %v, want 700", rows[0][0])
	}
}

func TestUpdateSerializedAgainstScan(t *testing.T) {
	rt := newRT(t, 300, core.DefaultConfig())
	// Run a slow scan concurrently with updates; counts must be consistent
	// (either before or after the inserts, never torn).
	var inserted []tuple.Tuple
	for i := 0; i < 50; i++ {
		inserted = append(inserted, tuple.Tuple{tuple.I64(int64(10000 + i)), tuple.I64(0), tuple.F64(0)})
	}
	upQ, err := rt.Submit(context.Background(), plan.NewUpdate("t", inserted))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upQ.Result.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := upQ.Wait(); err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, rt, plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}))
	if rows[0][0].I != 350 {
		t.Fatalf("count after update: %v", rows[0][0])
	}
}

// programs makes one task per (filter, project) pair for rows of width
// columns.
func programs(width int, filters []expr.Pred, projects [][]int) []pageTask {
	tasks := make([]pageTask, len(filters))
	for i := range tasks {
		tasks[i].prog = compileRowProgram(filters[i], projects[i], width)
	}
	return tasks
}

func TestBuildPageLease(t *testing.T) {
	// One visit of a page serves every consumer: each gets its own batch
	// array of exactly the rows it keeps (so each may reorder it) holding
	// fresh rows — never views of the page bytes or of another consumer's
	// rows — and a consumer that keeps no row gets no array at all.
	row := tuple.Tuple{tuple.I64(1), tuple.I64(2)}
	// The second page holds a row that is not a row.
	bad := page.New(2048)
	if _, err := bad.InsertTuple(row); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Insert([]byte{byte(tuple.KindInt), 1, 2}); err != nil {
		t.Fatal(err)
	}
	src := rawHeap(t, 2, pageOf(t, []tuple.Tuple{row}), bad.Bytes())
	k := newPageKernel(2)
	tasks := programs(2, []expr.Pred{nil, nil, expr.EQ(expr.Col(0), expr.CInt(5)), nil}, [][]int{nil, nil, nil, {1}})
	if fresh, err := buildPage(src, 0, k, tasks); err != nil || !fresh {
		t.Fatalf("first visit: fresh %v, %v", fresh, err)
	}
	outs := make([]tbuf.Batch, len(tasks))
	for i := range tasks {
		if outs[i] = tasks[i].out; cap(outs[i]) != len(outs[i]) {
			t.Fatalf("consumer %d: an array of %d for %d rows", i, cap(outs[i]), len(outs[i]))
		}
	}
	if len(outs[0]) != 1 || len(outs[1]) != 1 || outs[0][0][0].I != 1 || outs[1][0][1].I != 2 {
		t.Fatalf("unfiltered consumers: %v %v", outs[0], outs[1])
	}
	outs[0][0][0] = tuple.I64(99)
	outs[0][0] = nil
	if outs[1][0][0].I != 1 {
		t.Fatal("two consumers of one page share a row or an array")
	}
	if outs[2] != nil {
		t.Fatalf("filter not applied, or an array made for no rows: %v", outs[2])
	}
	if len(outs[3]) != 1 || len(outs[3][0]) != 1 || outs[3][0][0].I != 2 {
		t.Fatalf("projection: %v", outs[3])
	}
	fr, err := src.f.Pool().PinFrame(buffer.PageID{File: src.f.Name, Block: 0})
	if err != nil {
		t.Fatal(err)
	}
	clear(fr.Data()[4:]) // everything but the slot count and the free offset
	fr.Unpin()
	if outs[1][0][1].I != 2 || outs[3][0][0].I != 2 {
		t.Fatal("a built row aliases the page bytes")
	}
	// A row that is not a row fails the page, and no consumer keeps part of it.
	for i := range tasks {
		tasks[i].out = nil
	}
	_, err = buildPage(src, 1, k, tasks)
	var ee *tuple.EncodingError
	if !errors.As(err, &ee) {
		t.Fatalf("hostile row: got %v, want a *tuple.EncodingError", err)
	}
	for i := range tasks {
		if tasks[i].out != nil {
			t.Fatalf("consumer %d was left rows of a failed page: %v", i, tasks[i].out)
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	rt := core.NewRuntime(sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8}), core.DefaultConfig(), nil)
	defer rt.Close()
	w := newSpillWriter(rt, &core.Packet{}, "spill")
	const n = 300
	for i := 0; i < n; i++ {
		if err := w.add(tuple.Tuple{tuple.I64(int64(i)), tuple.Str(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	total, err := w.close()
	if err != nil || total != n {
		t.Fatalf("close: %d %v", total, err)
	}
	r := newSpillReader(rt.SM.Disk, w.name, 2)
	for i := 0; i < n; i++ {
		tp, ok, err := r.next()
		if err != nil || !ok || tp[0].I != int64(i) {
			t.Fatalf("read %d: %v %v %v", i, tp, ok, err)
		}
	}
	if _, ok, _ := r.next(); ok {
		t.Fatal("reader should be exhausted")
	}
}

func TestOSPOffScanIndependence(t *testing.T) {
	rt := newRT(t, 1000, core.BaselineConfig())
	rt.SM.Disk.ResetStats()
	p1 := runPlan(t, rt, plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}))
	if p1[0][0].I != 1000 {
		t.Fatal("count")
	}
	if rt.TotalShares() != 0 {
		t.Fatal("baseline must not share")
	}
}
