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
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
)

func parCfg(par int) core.Config {
	cfg := core.DefaultConfig()
	cfg.ScanParallelism = par
	return cfg
}

type fakeSource struct{ n int64 }

func (f fakeSource) numPages() int64 { return f.n }
func (f fakeSource) ncols() int      { return 0 }
func (f fakeSource) pinPage(int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	return nil, nil, false, errors.New("a source of page counts only")
}

func TestPartitionBoundaries(t *testing.T) {
	for _, tc := range []struct {
		pages  int64
		par    int
		frames int // the buffer pool's capacity
		want   int // expected partition count after clamping
	}{
		{100, 4, 1024, 4},
		{100, 1, 1024, 1},
		{3, 8, 1024, 3},    // clamp to page count
		{0, 4, 1024, 1},    // empty source keeps one (empty) partition
		{7, 3, 1024, 3},    // uneven split
		{100, -2, 1024, 1}, // negative = serial
		{100, 64, 32, 16},  // clamp to half the pool's frames
		{100, 4, 32, 4},    // olap_shared_io's shape: unclamped
		{100, 8, 9, 4},     // an odd frame count rounds down
		{100, 4, 3, 1},     // a pool of a few frames scans serially
		{100, 4, 1, 1},     // even a one-frame pool keeps one partition
	} {
		s := newScanner(1, fakeSource{n: tc.pages}, true, tc.par, tc.frames)
		if len(s.parts) != tc.want {
			t.Fatalf("pages=%d par=%d frames=%d: %d partitions, want %d", tc.pages, tc.par, tc.frames, len(s.parts), tc.want)
		}
		// Partitions must tile [0, pages) contiguously and disjointly.
		var next int64
		for _, p := range s.parts {
			if p.lo != next || p.hi < p.lo || p.pos != p.lo {
				t.Fatalf("pages=%d par=%d: bad partition %+v at expected lo %d", tc.pages, tc.par, p, next)
			}
			next = p.hi
		}
		if next != tc.pages {
			t.Fatalf("pages=%d par=%d: partitions end at %d", tc.pages, tc.par, next)
		}
	}
	// Ordered scans are forced serial regardless of the knob.
	if s := newScanner(1, fakeSource{n: 100}, false, 8, 1024); len(s.parts) != 1 {
		t.Fatalf("ordered scan got %d partitions", len(s.parts))
	}
}

func TestPartitionedScanExactlyOnce(t *testing.T) {
	const n = 2000
	for _, par := range []int{1, 2, 3, 4, 8, 64} {
		rt := newRT(t, n, parCfg(par))
		rows := runPlan(t, rt, plan.NewTableScan("t", testSchema(), nil, nil, false))
		if len(rows) != n {
			t.Fatalf("par=%d: %d rows, want %d", par, len(rows), n)
		}
		seen := make(map[int64]bool, n)
		for _, r := range rows {
			if seen[r[0].I] {
				t.Fatalf("par=%d: key %d delivered twice", par, r[0].I)
			}
			seen[r[0].I] = true
		}
	}
}

func TestPartitionedScanFilterProject(t *testing.T) {
	const n = 2000
	rt := newRT(t, n, parCfg(4))
	pred := expr.LT(expr.Col(0), expr.CInt(500))
	rows := runPlan(t, rt, plan.NewTableScan("t", testSchema(), pred, []int{0}, false))
	if len(rows) != 500 {
		t.Fatalf("filtered rows: %d, want 500", len(rows))
	}
	seen := make(map[int64]bool)
	for _, r := range rows {
		if len(r) != 1 || r[0].I >= 500 || seen[r[0].I] {
			t.Fatalf("bad projected row %v", r)
		}
		seen[r[0].I] = true
	}
}

func TestPartitionedScanOrderedStaysSerial(t *testing.T) {
	const n = 1500
	rt := newRT(t, n, parCfg(8))
	rows := runPlan(t, rt, plan.NewTableScan("t", testSchema(), nil, nil, true))
	if len(rows) != n {
		t.Fatalf("%d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("ordered scan out of order at %d: got key %d", i, r[0].I)
		}
	}
}

func TestPartitionedScanEmptyTable(t *testing.T) {
	rt := newRT(t, 0, parCfg(4))
	rows := runPlan(t, rt, plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}))
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("count over empty table: %v", rows)
	}
}

// startBlockedScan submits a bare table-scan query and consumes one batch,
// which guarantees the partitioned scan group is registered, in flight, and
// (with far more pages than the result buffer holds) blocked mid-scan.
// Returns the query and the number of rows already consumed.
func startBlockedScan(t *testing.T, rt *core.Runtime) (*core.Query, int64) {
	t.Helper()
	q, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Result.Get()
	if err != nil {
		t.Fatal(err)
	}
	return q, int64(len(b))
}

func drainCount(t *testing.T, q *core.Query) int64 {
	t.Helper()
	var n int64
	for {
		b, err := q.Result.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(b))
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScanRidesBeforeSubmitReturns: a scan packet decides in its Run whether
// it rides a scan group, and Submit returns only once it has. So a scan sent
// beside a held one has ridden it by then, with nothing waited for — on one P
// too, where the held scan, drained at once, would otherwise end before the
// new packet ran — and the table is read in one pass.
func TestScanRidesBeforeSubmitReturns(t *testing.T) {
	const n = 6000
	for _, par := range []int{1, 4} {
		rt := newRT(t, n, parCfg(par))
		heap := rt.SM.MustTable("t").Heap
		if err := rt.SM.Pool.Invalidate(); err != nil {
			t.Fatal(err)
		}
		rt.SM.Disk.ResetStats()
		q1, pre := startBlockedScan(t, rt)
		q2, err := rt.Submit(context.Background(), plan.NewAggregate(
			plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(1000)), nil, false),
			[]expr.AggSpec{{Kind: expr.AggCount}}))
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Stats().SharesByOp[plan.OpTableScan]; got != 1 {
			t.Fatalf("P=%d: %d scan shares when Submit returned, want 1", par, got)
		}
		if got := pre + drainCount(t, q1); got != n {
			t.Fatalf("P=%d: host scan rows: %d, want %d", par, got, n)
		}
		b2, err := q2.Result.Get()
		if err != nil {
			t.Fatal(err)
		}
		if b2[0][0].I != n-1000 {
			t.Fatalf("P=%d: rider's count: %d, want %d", par, b2[0][0].I, n-1000)
		}
		if err := q2.Wait(); err != nil {
			t.Fatal(err)
		}
		// What the held scan had read when the rider joined: the batch taken,
		// a full result buffer, and a page in each partition's hands; the
		// wrap reads that prefix again.
		reads, slack := rt.SM.Disk.Stats().ByFile[heap.Name], int64(1+rt.Cfg.BufferCapacity+par)
		if reads < heap.NumPages() || reads > heap.NumPages()+slack {
			t.Fatalf("P=%d: %d blocks of a %d-page table read, want one pass (at most %d)",
				par, reads, heap.NumPages(), heap.NumPages()+slack)
		}
	}
}

func TestPartitionedScanSatelliteAttachMidScan(t *testing.T) {
	const n = 4000
	rt := newRT(t, n, parCfg(4))
	q1, pre := startBlockedScan(t, rt)
	// A second scan with a different predicate cannot dedupe by signature;
	// it must piggyback on the in-flight partitioned group, owing every
	// partition its full range (circular wrap serves the missed pages).
	p2 := plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(1000)), nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}})
	q2, err := rt.Submit(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := pre + drainCount(t, q1); got != n {
		t.Fatalf("host scan rows: %d, want %d", got, n)
	}
	b2, err := q2.Result.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b2[0][0].I != n-1000 {
		t.Fatalf("satellite count: %d, want %d", b2[0][0].I, n-1000)
	}
	if err := q2.Wait(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SharesByOp[plan.OpTableScan] == 0 {
		t.Fatal("satellite did not attach to the in-flight scan group")
	}
	if rt.Stats().EngineStats[plan.OpTableScan].SubWorkers < 3 {
		t.Fatalf("expected >=3 scan sub-workers, stats: %+v", rt.Stats().EngineStats[plan.OpTableScan])
	}
}

func TestCancelledConduitStillServesSatellites(t *testing.T) {
	// A signature-identical scan absorbed onto another query's in-flight
	// scan packet must receive the complete stream even when the conduit
	// query is cancelled mid-scan: cancellation abandons only the conduit's
	// own buffers, and the scan group keeps serving the attached satellite.
	const n = 3000
	rt := newRT(t, n, parCfg(4))
	ctxC, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	qC, err := rt.Submit(ctxC, plan.NewTableScan("t", testSchema(), nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qC.Result.Get(); err != nil {
		t.Fatal(err)
	}
	qR, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	cancelC()
	rows := make(map[int64]int, n)
	got := int64(0)
	for {
		b, err := qR.Result.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b {
			rows[r[0].I]++
			got++
		}
	}
	if err := qR.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("satellite rows after conduit cancel: %d, want %d", got, n)
	}
	for k, c := range rows {
		if c != 1 {
			t.Fatalf("key %d delivered %d times", k, c)
		}
	}
}

func TestSatelliteRescuedFromCancelledHost(t *testing.T) {
	// An aggregate absorbed onto a host that gets cancelled before emitting
	// must be rescued (its subtree re-dispatched), not handed the host's
	// error or a partial result. A held bare scan of another projection pins
	// the table, so the host aggregate cannot emit until the pin is read.
	const n = 3000
	rt := newRT(t, n, parCfg(4))
	pin, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), nil, []int{0}, false))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := pin.Result.Get()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() plan.Node {
		return plan.NewAggregate(
			plan.NewTableScan("t", testSchema(), nil, nil, false),
			[]expr.AggSpec{{Kind: expr.AggCount}})
	}
	ctxC, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	qC, err := rt.Submit(ctxC, mk())
	if err != nil {
		t.Fatal(err)
	}
	qR, err := rt.Submit(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().EngineStats[plan.OpAggregate].Shares[core.ShareAttached]; got != 1 || qR.Stats.Shares[core.ShareAttached].Load() != 1 {
		t.Fatalf("%d aggregates attached, want qR's onto the held host", got)
	}
	cancelC()
	if got := int64(len(pinned)) + drainCount(t, pin); got != n {
		t.Fatalf("pin rows: %d, want %d", got, n)
	}
	b, err := qR.Result.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b[0][0].I != n {
		t.Fatalf("count after host cancel: %d, want %d", b[0][0].I, n)
	}
	if err := qR.Wait(); err != nil {
		t.Fatal(err)
	}
	<-qC.Root.Done()
}

func TestPartitionedScanCancelHostConsumerMidScan(t *testing.T) {
	const n = 4000
	rt := newRT(t, n, parCfg(4))
	q1, _ := startBlockedScan(t, rt)
	p2 := plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(500)), nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}})
	q2, err := rt.Submit(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SharesByOp[plan.OpTableScan] == 0 {
		t.Fatal("satellite did not attach to the in-flight scan group")
	}
	// Cancel the *host* consumer while the satellite still owes pages on
	// every partition: the scan group must drop the host and keep serving
	// the satellite to completion — no partition may stall.
	q1.Cancel()
	b2, err := q2.Result.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b2[0][0].I != n-500 {
		t.Fatalf("satellite count after host cancel: %d, want %d", b2[0][0].I, n-500)
	}
	if err := q2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedScanCancelSatelliteMidScan(t *testing.T) {
	const n = 4000
	rt := newRT(t, n, parCfg(4))
	q1, pre := startBlockedScan(t, rt)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	p2 := plan.NewAggregate(
		plan.NewTableScan("t", testSchema(), expr.GE(expr.Col(0), expr.CInt(500)), nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}})
	q2, err := rt.Submit(ctx2, p2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SharesByOp[plan.OpTableScan] == 0 {
		t.Fatal("satellite did not attach to the in-flight scan group")
	}
	cancel2()
	// The host must still receive every row exactly once.
	if got := pre + drainCount(t, q1); got != n {
		t.Fatalf("host rows after satellite cancel: %d, want %d", got, n)
	}
	<-q2.Root.Done()
}

// TestFoldInstalledMidScan drives a scanner directly. Its one consumer is not
// read, so the first pages reach a buffer that fills as rows; then the fold is
// handed down, the buffer read, and the rest of the table folded. The rows
// added and the partials absorbed are together the whole table's answer,
// every partial is registered when the packet completes, and what was folded
// is exactly the pages that were not rows.
func TestFoldInstalledMidScan(t *testing.T) {
	const n = 3000
	keys := []int{1}
	specs := []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(2)}, {Kind: expr.AggMin, Arg: expr.Col(0)},
		{Kind: expr.AggAvg, Arg: expr.Mul(expr.Col(2), expr.CFloat(0.1))}}
	for _, par := range []int{1, 4} {
		rt := newRT(t, n, parCfg(par))
		carrier, perPage := startBlockedScan(t, rt) // the packets need a live query to belong to
		node := plan.NewTableScan("t", testSchema(), nil, nil, false)
		want, err := volcano.New(rt.SM).Run(context.Background(), plan.NewGroupBy(node, keys, specs))
		if err != nil {
			t.Fatal(err)
		}
		src := heapSource{f: rt.SM.MustTable("t").Heap}
		pkt, buf := rt.NewInternalPacket(carrier.Root, node)
		s := newScanner(pkt.ID, src, true, par, rt.SM.Pool.Capacity())
		if why := s.attach(&scanConsumer{pkt: pkt}, false); !why.Shared() {
			t.Fatal("attach refused")
		}
		done := make(chan error, 1)
		go func() { done <- s.run(rt, pkt) }()
		eventually(t, "the scanner blocked on the full buffer", func() bool { return buf.Snapshot().PutBlocked })

		fold := &scanFold{keys: keys, specs: specs}
		if why := pkt.SetFold(rt, fold); why != core.HandOverInstalled {
			t.Fatalf("P=%d: the hand-over ended %v", par, why)
		}
		// A second consumer of the same scan keeps the worker busy past this
		// one's completion: it wants rows of the pages it missed only, which
		// the wrap serves last, into a buffer nobody reads yet. (With four
		// partitions those pages are not one worker's, so it only rides.)
		latePkt, lateBuf := rt.NewInternalPacket(carrier.Root, node)
		if why := s.attach(&scanConsumer{pkt: latePkt, filter: expr.LT(expr.Col(0), expr.CInt(int64(rt.Cfg.BufferCapacity+1)*int64(perPage)))}, false); !why.Shared() {
			t.Fatal("the second attach was refused")
		}
		total, asRows := newGroupTable(keys, specs), 0
		for {
			b, err := buf.Get()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range b {
				total.add(r)
			}
			asRows += len(b)
		}
		// EOF: the packet has completed, so every partial is registered —
		// while the worker that filled it is still at work for the other
		// consumer, blocked on its buffer.
		if par == 1 {
			eventually(t, "the scanner blocked on the late consumer's buffer", func() bool { return lateBuf.Snapshot().PutBlocked })
		}
		fold.mu.Lock()
		partials := len(fold.partials)
		for _, p := range fold.partials {
			total.absorb(p)
		}
		fold.mu.Unlock()
		late := 0
		for b, err := lateBuf.Get(); err != io.EOF; b, err = lateBuf.Get() {
			if err != nil {
				t.Fatal(err)
			}
			late += len(b)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if want := (rt.Cfg.BufferCapacity + 1) * int(perPage); late != want {
			t.Errorf("P=%d: the late consumer got %d rows, want %d", par, late, want)
		}
		sdCompare(t, fmt.Sprintf("P=%d, %d rows added and %d partials absorbed", par, asRows, partials),
			node, groupTuples(total), sdSorted(want))
		if folded := carrier.Stats.FoldedRows.Load(); asRows == 0 || folded == 0 || int64(asRows)+folded != n || partials < 1 || partials > par {
			t.Errorf("P=%d: %d rows built, %d folded into %d partials: want all %d between them", par, asRows, folded, partials, n)
		}
		if par == 1 {
			// One worker, blocked with a page in hand behind a full buffer:
			// the pages that were rows are exactly those.
			built := 0
			for ord := 0; ord <= rt.Cfg.BufferCapacity; ord++ {
				fr, l, _, err := src.pinPage(int64(ord))
				if err != nil {
					t.Fatal(err)
				}
				built += l.Rows
				fr.Unpin()
			}
			if asRows != built {
				t.Errorf("%d rows were built, want the %d of the first %d pages", asRows, built, rt.Cfg.BufferCapacity+1)
			}
		}
		if _, err := sdDrain(carrier); err != nil {
			t.Fatal(err)
		}
	}
}

// A cancelled consumer that folds never Puts, so its port never tells the
// scanner it is gone; the scanner's probe does (PruneDead), at the first page
// it is owed after the cancellation — whether it folds for an aggregate right
// above it or, through a join that is sent no row either, for one above that.
// Its packets all finish and its runtime closes: no worker is left folding for
// it.
func TestCancelledFoldingConsumerIsDetached(t *testing.T) {
	sum := []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(0)}}
	// (a column of the table: with every column the scan would be the held
	// one's to the letter, and ride it as a satellite that is handed nothing)
	scan := plan.NewTableScan("t", testSchema(), nil, []int{2}, false)
	for how, p := range map[string]plan.Node{
		"over the scan": plan.NewAggregate(scan, sum),
		"over a join":   plan.NewAggregate(plan.NewHashJoin(plan.NewTableScan("dim", testSchema(), nil, []int{2}, false), scan, 0, 0), sum),
	} {
		rt := newRT(t, 3000, parCfg(1))
		if _, err := rt.SM.CreateTable("dim", testSchema()); err != nil {
			t.Fatal(err)
		}
		dim := make([]tuple.Tuple, 1000)
		for i := range dim {
			dim[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.I64(0), tuple.F64(float64(3 * i))}
		}
		if err := rt.SM.Load("dim", dim); err != nil {
			t.Fatal(err)
		}
		// Both tables are held: no build ends before the fold is in the join's
		// slot, no page of t is served before it is in the scan's.
		heldDim, err := rt.Submit(context.Background(), plan.NewTableScan("dim", testSchema(), nil, nil, false))
		if err != nil {
			t.Fatal(err)
		}
		held, perPage := startBlockedScan(t, rt)
		eventually(t, "the held scans blocked on their full buffers", func() bool {
			return held.Result.Snapshot().PutBlocked && heldDim.Result.Snapshot().PutBlocked
		})
		q, err := rt.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		pkts := q.Packets() // in pre-order: the aggregate, what it reads, ..., the scan of t
		eventually(t, how+": the scan of t attached, the fold handed down", func() bool {
			return rt.Stats().SharesByOp[plan.OpTableScan] >= 1 && pkts[1].Handed() != nil
		})
		if n := drainCount(t, heldDim); n != int64(len(dim)) {
			t.Fatalf("%s: the held scan of dim returned %d rows", how, n)
		}
		eventually(t, how+": the fold in the slot of t's scan", func() bool {
			fold, _ := pkts[len(pkts)-1].Handed().(*scanFold)
			return fold != nil && (fold.build != nil) == (how == "over a join")
		})
		q.Cancel()
		if got := drainCount(t, held); got+perPage != 3000 {
			t.Fatalf("%s: the held scan returned %d rows, want 3000", how, got+perPage)
		}
		if err := q.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: the cancelled aggregate ended with %v", how, err)
		}
		for _, p := range pkts {
			select {
			case <-p.Done():
			default:
				t.Errorf("%s: %v is not done", how, p)
			}
		}
		// The one page the scanner was about to serve when the query was
		// cancelled, no more — of the hundred that followed.
		if folded := q.Stats.FoldedRows.Load(); folded > perPage {
			t.Errorf("%s: %d rows were folded for a cancelled query, want at most a page of %d", how, folded, perPage)
		}
		rt.Close()
	}
}

// A scan blocked on its consumer's buffer holds no frame: every batch of a
// page is built under the page's pin and delivered after it. On a pool of
// four frames, with a four-partition scan whose consumer reads nothing, all
// four frames can be pinned by somebody else, and a second four-partition
// scan that shares nothing with the first completes beside it.
func TestBlockedScanHoldsNoFrame(t *testing.T) {
	const n = 3000
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 4})
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
	rt := core.NewRuntime(mgr, parCfg(4), All())
	t.Cleanup(rt.Close)

	blocked, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), nil, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	// Its result is not read: the buffer fills and the partition workers
	// block in Put. Once they all have, every frame is free to pin.
	heap := mgr.MustTable("t").Heap
	deadline := time.Now().Add(10 * time.Second)
	for {
		var pinned []buffer.PageID
		for pno := int64(0); pno < 4; pno++ {
			id := buffer.PageID{File: heap.Name, Block: pno}
			if _, err := mgr.Pool.Pin(id); err != nil {
				break
			}
			pinned = append(pinned, id)
		}
		for _, id := range pinned {
			mgr.Pool.Unpin(id)
		}
		if len(pinned) == 4 && blocked.Result.Snapshot().PutBlocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 4 frames could be pinned beside a scan blocked on its buffer (%+v)",
				len(pinned), blocked.Result.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}

	beside, err := rt.SubmitOpts(context.Background(),
		plan.NewTableScan("t", testSchema(), expr.LT(expr.Col(0), expr.CInt(1000)), nil, false),
		core.QueryOptions{Parallelism: 4, DisableOSP: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainCount(t, beside); got != 1000 {
		t.Fatalf("the scan beside the blocked one returned %d rows, want 1000", got)
	}
	if got := drainCount(t, blocked); got != n {
		t.Fatalf("the blocked scan returned %d rows once read, want %d", got, n)
	}
}

// Two scan packets of one table whose goroutines reach Run before either's
// scanner is registered — which is what happens when they are enqueued within
// a few microseconds of each other — must not both drive a scan. hostOrJoin
// decides under the registry's lock: one hosts, the other rides the host's
// circular scan as a satellite attach, and the table is read once (plus the
// few pages the host read before the other arrived, which the wrap serves
// again).
func TestTwoRunsOfOneTableShareOneScan(t *testing.T) {
	const n = 6000
	for _, par := range []int{1, 4} {
		rt := newRT(t, n, parCfg(par))
		if _, err := rt.SM.CreateTable("u", testSchema()); err != nil {
			t.Fatal(err)
		}
		// The packets need a live query to belong to; this one never ends
		// before the test does, and touches another table.
		carrier, err := rt.Submit(context.Background(), plan.NewAggregate(
			plan.NewTableScan("u", testSchema(), nil, nil, false), []expr.AggSpec{{Kind: expr.AggCount}}))
		if err != nil {
			t.Fatal(err)
		}
		heap := rt.SM.MustTable("t").Heap
		op := NewTableScanOp()
		start := func(filter expr.Pred) (*core.Packet, *tbuf.Buffer, chan error) {
			pkt, buf := rt.NewInternalPacket(carrier.Root, plan.NewTableScan("t", testSchema(), filter, nil, false))
			done := make(chan error, 1)
			go func() {
				err := op.Run(rt, pkt)
				pkt.Complete(err) // what the µEngine's worker does after Run
				done <- err
			}()
			return pkt, buf, done
		}
		count := func(buf *tbuf.Buffer) (rows int64) {
			for {
				b, err := buf.Get()
				if err == io.EOF {
					return rows
				}
				if err != nil {
					t.Error(err)
					return -1
				}
				rows += int64(len(b))
			}
		}
		waitForJoin := func(shares int64) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); rt.Stats().SharesByOp[plan.OpTableScan] != shares; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("P=%d: %d scan shares, want %d: the second Run hosted a scan of its own",
						par, rt.Stats().SharesByOp[plan.OpTableScan], shares)
				}
			}
		}

		rt.SM.Pool.Invalidate()
		rt.SM.Disk.ResetStats()
		// Either may host. The filter keeps a row of every page, so a host
		// that nobody reads yet is held a buffer's worth of pages in,
		// whichever of the two it is.
		_, b1, d1 := start(nil)
		_, b2, d2 := start(expr.EQ(expr.Col(1), expr.CInt(0)))
		waitForJoin(1)
		got2 := make(chan int64)
		go func() { got2 <- count(b2) }()
		if got := count(b1); got != n {
			t.Fatalf("P=%d: the unfiltered scan returned %d rows, want %d", par, got, n)
		}
		if got := <-got2; got != (n+6)/7 {
			t.Fatalf("P=%d: the filtered scan returned %d rows, want %d", par, got, (n+6)/7)
		}
		if err := <-d1; err != nil {
			t.Fatal(err)
		}
		if err := <-d2; err != nil {
			t.Fatal(err)
		}
		// Each partition can run at most a buffer's worth of pages ahead of
		// a reader that has not started.
		reads, slack := rt.SM.Disk.Stats().ByFile[heap.Name], int64(par*(rt.Cfg.BufferCapacity+2))
		if reads < heap.NumPages() || reads > heap.NumPages()+slack {
			t.Fatalf("P=%d: two Runs read %d blocks of a %d-page table (one shared scan reads at most %d)",
				par, reads, heap.NumPages(), heap.NumPages()+slack)
		}
		if got := carrier.Stats.SatelliteAttaches(); got != 1 {
			t.Fatalf("P=%d: %d satellite attaches, want 1", par, got)
		}

		// A joiner whose reader goes away mid-scan returns; the host still
		// gets every row once, and no frame stays pinned behind it.
		p1, b1, d1 := start(nil)
		p2, b2, d2 := start(nil)
		waitForJoin(2)
		if b1.Producer.Load() != p1.ID { // the scanner's host feeds both
			p1, p2, b1, b2 = p2, p1, b2, b1
		}
		if b2.Producer.Load() != p1.ID {
			t.Fatalf("P=%d: the joiner is fed by packet %d, not the host %d", par, b2.Producer.Load(), p1.ID)
		}
		p2.CancelSubtree()
		b2.Abandon()
		if got := count(b1); got != n {
			t.Fatalf("P=%d: rows beside a cancelled joiner: %d, want %d", par, got, n)
		}
		for _, d := range []chan error{d1, d2} {
			select {
			case err := <-d:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("P=%d: a Run did not return after its reader left", par)
			}
		}
		if err := rt.SM.Pool.Invalidate(); err != nil {
			t.Fatalf("P=%d: %v", par, err)
		}
	}
}

// TestTwoWorkersLocateOnePage: two scans that share nothing (OSP off), four
// partition workers each, are let go together on a cold table whose pages all
// fit the pool. Both may find a frame without a layout and both derive it —
// either store is kept, both were right — so both answers are exact, the
// pages located are between one table's and two, every frame ends up holding
// a layout, and a third scan locates none.
func TestTwoWorkersLocateOnePage(t *testing.T) {
	const n = 6000
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 512})
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
	if err := mgr.Pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	pages := mgr.MustTable("t").Heap.NumPages()
	cfg := core.BaselineConfig()
	cfg.ScanParallelism = 4
	rt := core.NewRuntime(mgr, cfg, All())
	t.Cleanup(rt.Close)

	// scan returns the sum of the keys a full scan delivers, and its query.
	scan := func() (int64, *core.Query, error) {
		q, err := rt.Submit(context.Background(), plan.NewTableScan("t", testSchema(), nil, []int{0}, false))
		if err != nil {
			return 0, nil, err
		}
		var sum int64
		for {
			b, err := q.Result.Get()
			if err == io.EOF {
				return sum, q, q.Wait()
			}
			if err != nil {
				return 0, q, err
			}
			for _, r := range b {
				sum += r[0].I
			}
		}
	}
	const want = int64(n) * (n - 1) / 2
	hold := make(chan struct{})
	located := make(chan int64, 2)
	for range 2 {
		go func() {
			<-hold
			sum, q, err := scan()
			if err != nil || sum != want {
				t.Errorf("a scan beside another on a cold table: sum %d (want %d), %v", sum, want, err)
				located <- 0
				return
			}
			if v := q.Stats.PagesVisited.Load(); v != pages {
				t.Errorf("%d pages visited, the table has %d", v, pages)
			}
			located <- q.Stats.PagesLocated.Load()
		}()
	}
	close(hold)
	if sum := <-located + <-located; sum < pages || sum > 2*pages {
		t.Errorf("the two scans located %d pages between them, want %d to %d", sum, pages, 2*pages)
	}
	if st := mgr.Pool.Stats(); int64(st.Layouts) != pages {
		t.Errorf("%d of the table's %d resident pages hold a layout", st.Layouts, pages)
	}
	sum, q, err := scan()
	if err != nil || sum != want || q.Stats.PagesLocated.Load() != 0 || q.Stats.PagesVisited.Load() != pages {
		t.Errorf("the third scan: sum %d, %v, %d of %d pages located", sum, err, q.Stats.PagesLocated.Load(), q.Stats.PagesVisited.Load())
	}
}

// corruptSource is a table's heap with one corrupt page: pinning it panics.
type corruptSource struct {
	heapSource
	bad int64
}

func (c corruptSource) pinPage(ord int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	if ord == c.bad {
		panic("corrupt page")
	}
	return c.heapSource.pinPage(ord)
}

// A panic on a page of either partition of a two-partition scan group fails
// the whole group at once: both attached consumers end with *PanicError, the
// panic is counted once, run returns it, and the runtime closes — no
// partition is left waiting for pages its failed sibling owed.
func TestPanicQuarantineScanPartition(t *testing.T) {
	for _, part := range []int{0, 1} {
		rt := newRT(t, 3000, parCfg(2))
		carrier, _ := startBlockedScan(t, rt) // the packets need a live query to belong to
		node := plan.NewTableScan("t", testSchema(), nil, nil, false)
		heap := heapSource{f: rt.SM.MustTable("t").Heap}
		s := newScanner(0, heap, true, 2, rt.SM.Pool.Capacity())
		s.src = corruptSource{heapSource: heap, bad: s.parts[part].lo + 1}
		host, hostBuf := rt.NewInternalPacket(carrier.Root, node)
		second, secondBuf := rt.NewInternalPacket(carrier.Root, node)
		for _, pkt := range []*core.Packet{host, second} {
			if why := s.attach(&scanConsumer{pkt: pkt}, false); !why.Shared() {
				t.Fatal("attach refused")
			}
		}
		run := make(chan error, 1)
		go func() { run <- s.run(rt, host) }()
		ends := make(chan error, 2)
		for _, buf := range []*tbuf.Buffer{hostBuf, secondBuf} {
			go func() {
				_, err := buf.Drain()
				ends <- err
			}()
		}
		for _, ch := range []chan error{ends, ends, run} {
			select {
			case err := <-ch:
				if !errors.As(err, new(*core.PanicError)) {
					t.Fatalf("partition %d panicked: a consumer or run ended with %v, want *PanicError", part, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("partition %d panicked: a consumer or run still waiting after 10 s", part)
			}
		}
		if n := rt.Stats().EngineStats[plan.OpTableScan].Panics; n != 1 {
			t.Fatalf("partition %d panicked: %d panics counted, want 1", part, n)
		}
		drainCount(t, carrier)
		closed := make(chan struct{})
		go func() { rt.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("partition %d panicked: Close still blocked after 10 s", part)
		}
	}
}

// failingSource is a table's heap with one page that fails to pin.
type failingSource struct {
	heapSource
	bad int64
}

var errFailingPage = errors.New("the page failed")

func (c failingSource) pinPage(ord int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	if ord == c.bad {
		return nil, nil, false, errFailingPage
	}
	return c.heapSource.pinPage(ord)
}

// A page that fails on either partition of a two-partition scan group ends
// the whole group as a panic does: both attached consumers and run end with
// the page's error, nothing is counted a panic, and the runtime closes.
func TestFailedScanPartitionEndsTheGroup(t *testing.T) {
	for _, part := range []int{0, 1} {
		rt := newRT(t, 3000, parCfg(2))
		carrier, _ := startBlockedScan(t, rt)
		node := plan.NewTableScan("t", testSchema(), nil, nil, false)
		heap := heapSource{f: rt.SM.MustTable("t").Heap}
		s := newScanner(0, heap, true, 2, rt.SM.Pool.Capacity())
		s.src = failingSource{heapSource: heap, bad: s.parts[part].lo + 1}
		host, hostBuf := rt.NewInternalPacket(carrier.Root, node)
		second, secondBuf := rt.NewInternalPacket(carrier.Root, node)
		for _, pkt := range []*core.Packet{host, second} {
			if why := s.attach(&scanConsumer{pkt: pkt}, false); !why.Shared() {
				t.Fatal("attach refused")
			}
		}
		run := make(chan error, 1)
		go func() { run <- s.run(rt, host) }()
		ends := make(chan error, 2)
		for _, buf := range []*tbuf.Buffer{hostBuf, secondBuf} {
			go func() {
				_, err := buf.Drain()
				ends <- err
			}()
		}
		for _, ch := range []chan error{ends, ends, run} {
			select {
			case err := <-ch:
				if !errors.Is(err, errFailingPage) {
					t.Fatalf("partition %d failed: a consumer or run ended with %v, want the page's error", part, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("partition %d failed: a consumer or run still waiting after 10 s", part)
			}
		}
		if n := rt.Stats().EngineStats[plan.OpTableScan].Panics; n != 0 {
			t.Fatalf("partition %d failed: %d panics counted", part, n)
		}
		drainCount(t, carrier)
		closed := make(chan struct{})
		go func() { rt.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("partition %d failed: Close still blocked after 10 s", part)
		}
	}
}
