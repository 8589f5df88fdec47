// The sort µEngine: external merge sort with materialized sorted output,
// and a bounded heap for a Top-N.
//
// Phase structure follows the paper's treatment of sort as a two-phase
// operator (§3.2): phase 1 (consume input, sort runs, merge to a sorted
// temp file) is a *full* overlap — identical packets attach at any point —
// and phase 2 (streaming the sorted file to the parent) offers the
// *materialization* enhancement: a late-arriving identical sort reuses the
// host's sorted file instead of re-sorting ("one query may have already
// sorted a file that another query is about to start sorting; by monitoring
// the sort operator we can detect this overlap and reuse the sorted file").
//
// A Sort with Limit n (ORDER BY … LIMIT n) keeps the n first rows of the
// order in a heap while it consumes its input and emits them at the end: no
// run, no temp file, no sortState. Nothing is produced before the end of
// input, so an equal-signature packet attaches during the whole input phase
// by the default rule.
package ops

import (
	"cmp"
	"container/heap"
	"errors"
	"slices"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
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

// TryAdmit implements phase-2 reuse: past the window of the µEngine's
// signature-exact attach (phase 1, or the replay window after it), a
// satellite reuses the sorted file of the first eligible host that has one,
// streamed by a detached sub-worker (Runtime.Serve), and skips the entire
// sort cost. A host whose file is gone refuses as done; one still sorting
// refuses nothing here (its port already said why).
func (o *SortOp) TryAdmit(rt *core.Runtime, sat *core.Packet, hosts []*core.Packet) (core.ShareDecision, *core.Query) {
	why := core.ShareNoHost
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
			why = core.ShareHostDone
			continue
		}
		st.readers++
		st.mu.Unlock()
		// The satellite is fed by the file streamer, not the host's port, so
		// it is deliberately NOT on the host's satellite list — the host
		// finishing (or dying) mid-stream must not complete it out from under
		// the streamer. The host still counts it as hosted (NoteShare).
		rt.Serve(sat, func() error {
			// The last reader drops the file before the satellite completes:
			// a query that has its answer leaves no temp file behind.
			defer o.release(rt, host.ID, st, func() { st.readers-- })
			return o.streamFile(rt, st, sat)
		})
		return core.ShareAdmitted, host.Query
	}
	return why, nil
}

// streamFile streams the sorted file to pkt's port: the host's phase 2, or a
// satellite reusing the file. A cancelled packet stops with its query's
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
			if errors.Is(err, tbuf.ErrConsumersGone) {
				return pkt.Query.CancelErr()
			}
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
	if node.Limit > 0 {
		return runTopN(rt, pkt, node.Limit, order)
	}
	less := func(a, b tuple.Tuple) bool { return order(a, b) < 0 }

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
	if err := o.mergeRuns(rt, runNames, ncols, less, w); err != nil {
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
	// the same file through TryAdmit instead).
	return o.streamFile(rt, st, pkt)
}

// topItem is one row a Top-N holds, with its arrival number: among rows
// equal on the keys the earlier one orders first, so the heap keeps exactly
// what a stable sort followed by a truncation would.
type topItem struct {
	t   tuple.Tuple
	seq int64
}

// topHeap holds the first rows of the order seen so far with the last of
// them at the root, the one a better row replaces.
type topHeap struct {
	items []topItem
	order func(a, b tuple.Tuple) int
}

func (h *topHeap) compare(a, b topItem) int {
	if c := h.order(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (h *topHeap) Len() int           { return len(h.items) }
func (h *topHeap) Less(i, j int) bool { return h.compare(h.items[i], h.items[j]) > 0 }
func (h *topHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topHeap) Push(x interface{}) { h.items = append(h.items, x.(topItem)) }
func (h *topHeap) Pop() interface{} {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// runTopN is Run for a Sort with a limit: the n first rows of the order,
// emitted in order at end of input.
func runTopN(rt *core.Runtime, pkt *core.Packet, n int64, order func(a, b tuple.Tuple) int) error {
	h := &topHeap{order: order}
	cur := newCursor(pkt.Inputs[0])
	for seq := int64(0); ; seq++ {
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
		case int64(len(h.items)) < n:
			h.items = append(h.items, topItem{t: t.Clone(), seq: seq})
			heap.Fix(h, len(h.items)-1)
		case order(t, h.items[0].t) < 0:
			h.items[0] = topItem{t: t.Clone(), seq: seq}
			heap.Fix(h, 0)
		}
	}
	slices.SortFunc(h.items, h.compare)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	for _, it := range h.items {
		if err := em.add(it.t); err != nil {
			return emitResult(err)
		}
	}
	return emitResult(em.flush())
}

// mergeItem is one head-of-run entry in the k-way merge heap.
type mergeItem struct {
	t   tuple.Tuple
	src int
}

type mergeHeap struct {
	items []mergeItem
	less  func(a, b tuple.Tuple) bool
}

func (h *mergeHeap) Len() int           { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool { return h.less(h.items[i].t, h.items[j].t) }
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

func (o *SortOp) mergeRuns(rt *core.Runtime, runNames []string, ncols int, less func(a, b tuple.Tuple) bool, w *spillWriter) error {
	readers := make([]*spillReader, len(runNames))
	h := &mergeHeap{less: less}
	for i, name := range runNames {
		readers[i] = newSpillReader(rt.SM.Disk, name, ncols)
		t, ok, err := readers[i].next()
		if err != nil {
			return err
		}
		if ok {
			h.items = append(h.items, mergeItem{t: t, src: i})
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		it := heap.Pop(h).(mergeItem)
		if err := w.add(it.t); err != nil {
			return err
		}
		t, ok, err := readers[it.src].next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, mergeItem{t: t, src: it.src})
		}
	}
	return nil
}
