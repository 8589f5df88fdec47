// The sort µEngine: external merge sort with materialized sorted output,
// and a bounded heap for a Top-N.
//
// Phase structure follows the paper's treatment of sort as a two-phase
// operator (§3.2): phase 1 (consume input, sort runs, merge to a sorted
// temp file) is a *full* overlap — identical packets attach at any point —
// and phase 2 (streaming the sorted file to the parent) offers the
// *materialization* enhancement: a late-arriving identical sort, when it
// runs, reuses the host's sorted file instead of re-sorting ("one query may
// have already sorted a file that another query is about to start sorting;
// by monitoring the sort operator we can detect this overlap and reuse the
// sorted file").
//
// A Sort with Limit n (ORDER BY … LIMIT n) keeps the n first rows of the
// order in a heap while it consumes its input and emits them at the end: no
// run, no temp file, no sortState; a scan below it is handed the first key a
// row needs to enter the heap, and builds no other. Nothing is produced
// before the end of input, so an equal-signature packet attaches during the
// whole input phase by the default rule.
package ops

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"
	"sync/atomic"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// sortRunSize is the number of tuples sorted in memory per spilled run.
const sortRunSize = plan.SortRunSize

// sortState tracks a host packet's materialized output, once whole, for
// phase-2 reuse.
type sortState struct {
	mu       sync.Mutex
	fileName string
	ncols    int
	readers  int
	hostDone bool
	dropped  bool
}

// SortOp is the sort µEngine implementation.
type SortOp struct {
	mu     sync.Mutex
	states map[int64]*sortState // host packet ID -> state
}

// NewSortOp creates the sort µEngine implementation.
func NewSortOp() *SortOp { return &SortOp{states: make(map[int64]*sortState)} }

// Op implements core.Operator.
func (*SortOp) Op() plan.OpType { return plan.OpSort }

// reuse is phase-2 reuse, which a sort packet tries first when it runs, past
// the signature-exact attach's window: it streams the sorted file of the
// first of its core.Runtime.Hosts that has one, after letting go of its
// input and subtree as a satellite does. ok is false when none has.
func (o *SortOp) reuse(rt *core.Runtime, pkt *core.Packet) (ok bool, err error) {
	hosts, _ := rt.Hosts(pkt)
	for _, host := range hosts {
		o.mu.Lock()
		st := o.states[host.ID]
		o.mu.Unlock()
		if st == nil {
			continue
		}
		st.mu.Lock()
		if st.dropped {
			st.mu.Unlock()
			continue
		}
		st.readers++
		st.mu.Unlock()
		for _, in := range pkt.Inputs {
			in.Abandon()
		}
		for _, c := range pkt.Children {
			c.Discard()
		}
		rt.NoteShare(pkt, core.ShareRode, host.Query)
		// The last reader drops the file before the packet completes: a
		// query that has its answer leaves no temp file behind.
		defer o.release(rt, host.ID, st, func() { st.readers-- })
		return true, o.streamFile(rt, st, pkt)
	}
	return false, nil
}

// streamFile streams the sorted file to pkt's port: the host's phase 2, or a
// packet reusing the file. A cancelled packet stops with its query's
// CancelErr: a genuinely cancelled one must not end in a clean EOF over
// truncated results, an OSP-cancelled one (flag only, live query) stops
// clean. A host with live phase-1 satellites keeps streaming: they hold the
// prefix already produced, so they cannot be rescued by re-dispatch, and the
// host's cancellation (a satisfied LIMIT on its own result) is not theirs.
func (o *SortOp) streamFile(rt *core.Runtime, st *sortState, pkt *core.Packet) error {
	n := int64(rt.SM.Disk.NumBlocks(st.fileName))
	for pno := int64(0); pno < n; pno++ {
		if pkt.Cancelled() && !pkt.HasLiveSatellites() {
			return pkt.Query.CancelErr()
		}
		rows, err := readSpillPage(rt.SM.Disk, st.fileName, st.ncols, pno)
		if err != nil {
			return err
		}
		if err := pkt.Out.Put(rows); err != nil {
			return err
		}
	}
	return nil
}

// release applies leave (a reader finishing, or the host) to st and drops the
// sorted file if that left it with no host and no reader.
func (o *SortOp) release(rt *core.Runtime, hostID int64, st *sortState, leave func()) {
	st.mu.Lock()
	leave()
	drop := st.hostDone && st.readers == 0 && !st.dropped
	st.dropped = st.dropped || drop
	st.mu.Unlock()
	if !drop {
		return
	}
	rt.SM.DropTemp(st.fileName)
	o.mu.Lock()
	delete(o.states, hostID)
	o.mu.Unlock()
}

// Run implements core.Operator.
func (o *SortOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.Sort)
	ncols := node.Schema().Len()
	order := func(a, b tuple.Tuple) int {
		if node.Desc {
			return tuple.CompareAt(b, a, node.Keys)
		}
		return tuple.CompareAt(a, b, node.Keys)
	}
	// Rows equal on the keys order by arrival (a Top-N) or run (a merge): the
	// earlier first, as a stable sort keeps them.
	rank := func(a, b ranked) int {
		if c := order(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.n, b.n)
	}
	if node.Limit > 0 {
		return runTopN(rt, pkt, node, rank)
	}
	if ok, err := o.reuse(rt, pkt); ok {
		return err
	}

	// Phase 1a: consume input into sorted runs spilled to temp files — the
	// packet's (newSpillWriter), dropped after Run however it ends.
	var runNames []string
	var run []tuple.Tuple
	spillRun := func() error {
		if len(run) == 0 {
			return nil
		}
		slices.SortStableFunc(run, order)
		w := newSpillWriter(rt, pkt, "sortrun")
		runNames = append(runNames, w.name)
		for _, t := range run {
			if err := w.add(t); err != nil {
				return err
			}
		}
		if _, err := w.close(); err != nil {
			return err
		}
		run = run[:0]
		return nil
	}
	cur := newCursor(pkt.Inputs[0])
	for {
		t, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		run = append(run, t)
		if len(run) >= sortRunSize {
			if err := spillRun(); err != nil {
				return err
			}
		}
	}
	if err := spillRun(); err != nil {
		return err
	}

	// Phase 1b: merge runs into the materialized sorted file. It is the
	// packet's until it is whole; then it leaves the packet for the
	// sortState, whose last reader (or the host) drops it.
	w := newSpillWriter(rt, pkt, "sorted")
	outName := w.name
	if err := o.mergeRuns(rt, runNames, ncols, rank, w); err != nil {
		return err
	}
	if _, err := w.close(); err != nil {
		return err
	}
	st := &sortState{fileName: outName, ncols: ncols}
	pkt.KeepTemp(outName)
	o.mu.Lock()
	o.states[pkt.ID] = st
	o.mu.Unlock()
	defer o.release(rt, pkt.ID, st, func() { st.hostDone = true })

	// Phase 2: stream the sorted file (linear overlap; late arrivals read
	// the same file through reuse instead).
	return o.streamFile(rt, st, pkt)
}

// ranked is a row with the number that breaks its ties on the keys.
type ranked struct {
	t tuple.Tuple
	n int
}

// heapOf is a container/heap of items under cmp: items[0] orders first.
type heapOf[T any] struct {
	items []T
	cmp   func(a, b T) int
}

func (h *heapOf[T]) Len() int           { return len(h.items) }
func (h *heapOf[T]) Less(i, j int) bool { return h.cmp(h.items[i], h.items[j]) < 0 }
func (h *heapOf[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *heapOf[T]) Push(x any)         { h.items = append(h.items, x.(T)) }
func (h *heapOf[T]) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// topBound is what a Top-N hands its input scan (core.Packet.SetBound): nil
// until the heap holds n rows, then the conjunct `first key >= k` (descending;
// `<= k` ascending) on the key's table column, k the first key of the last row
// the heap keeps. A row that fails it can never enter the heap; one that ties
// k may (a later key or nothing decides), so it is kept, and so is a NaN,
// which ties everything. The scanner loads it once a page; it only tightens.
type topBound struct{ atomic.Pointer[encCmp] }

// runTopN is Run for a Sort with a limit: the n first rows of the order,
// emitted in order at end of input. The heap has the last of them on top,
// the one a better row replaces.
func runTopN(rt *core.Runtime, pkt *core.Packet, node *plan.Sort, rank func(a, b ranked) int) error {
	n, h := int(node.Limit), &heapOf[ranked]{cmp: func(a, b ranked) int { return rank(b, a) }}
	tighten := handBound(rt, pkt, node)
	cur := newCursor(pkt.Inputs[0])
	for seq := 0; ; seq++ {
		t, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// A kept row is cloned: the input's rows are carved from arena
		// chunks, and n rows must not keep n chunks alive.
		switch {
		case len(h.items) < n:
			h.items = append(h.items, ranked{t: t.Clone(), n: seq})
			heap.Fix(h, len(h.items)-1)
		case rank(ranked{t: t, n: seq}, h.items[0]) < 0:
			h.items[0] = ranked{t: t.Clone(), n: seq}
			heap.Fix(h, 0)
		default:
			continue
		}
		if tighten != nil && len(h.items) == n {
			tighten(h.items[0].t)
		}
	}
	slices.SortFunc(h.items, rank)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	for _, it := range h.items {
		_ = em.add(it.t) // the heap is in hand: a stop wastes the rest, the port keeps why
	}
	return em.flush()
}

// handBound hands node's input its topBound when the scanner serves it page
// by page — the one rule of core.Packet.handOver decides, and counts, whether
// it is installed — and returns what publishes the last kept row's first key
// as the bound, or nil.
func handBound(rt *core.Runtime, pkt *core.Packet, node *plan.Sort) func(last tuple.Tuple) {
	project, why := pagedScan(node.Child)
	if why != core.HandOverInstalled {
		rt.NoteHandOver(pkt.Query, why)
		return nil
	}
	bound, key, col, op := new(topBound), node.Keys[0], node.Keys[0], expr.CmpLE
	if pkt.Children[0].SetBound(rt, bound) != core.HandOverInstalled {
		return nil
	}
	if project != nil {
		col = project[key]
	}
	if node.Desc {
		op = expr.CmpGE
	}
	return func(last tuple.Tuple) {
		if cur := bound.Load(); cur == nil || tuple.Compare(last[key], cur.lit) != 0 {
			c := colCmp(col, op, last[key])
			bound.Store(&c)
		}
	}
}

func (o *SortOp) mergeRuns(rt *core.Runtime, runNames []string, ncols int, rank func(a, b ranked) int, w *spillWriter) error {
	readers := make([]*spillReader, len(runNames))
	h := &heapOf[ranked]{cmp: rank}
	for i, name := range runNames {
		readers[i] = newSpillReader(rt.SM.Disk, name, ncols)
		t, ok, err := readers[i].next()
		if err != nil {
			return err
		}
		if ok {
			h.items = append(h.items, ranked{t: t, n: i})
		}
	}
	heap.Init(h)
	for len(h.items) > 0 {
		it := h.items[0]
		if err := w.add(it.t); err != nil {
			return err
		}
		t, ok, err := readers[it.n].next()
		if err != nil {
			return err
		}
		if ok {
			h.items[0] = ranked{t: t, n: it.n}
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return nil
}
