// Index-scan µEngine. Two access paths (paper §3.2):
//
//   - Clustered index scans stream B+tree leaves in key order. Unordered
//     consumers get linear overlap via the same circular scanner as table
//     scans (over leaves instead of heap pages); ordered consumers have a
//     spike WoP. Past it, an ordered scan's *suffix* still serves (§4.3.2,
//     AttachOrderedSuffix) a merge join, which reads the prefix with a second
//     packet (Figure 9), and a full ordered filtered scan, which reads it
//     itself (materialize, Figure 4b), each deciding when it runs.
//   - Unclustered index scans run in two phases: probe the index building a
//     RID list (full overlap — shareable for its whole duration via the
//     default signature attach), sort RIDs in ascending page order to avoid
//     revisiting heap pages, then fetch.
package ops

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/btree"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// leafSource adapts a clustered B+tree's leaf chain to the circular
// scanner's page abstraction.
type leafSource struct {
	tree  *btree.Tree
	pnos  []int64
	width int // columns of the rows the leaves hold
}

func (l *leafSource) numPages() int64 { return int64(len(l.pnos)) }
func (l *leafSource) ncols() int      { return l.width }
func (l *leafSource) pinPage(ord int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	return l.tree.PinLeaf(l.pnos[ord], l.width)
}

// pageStream sends whole pages of src through one consumer's filter and
// projection into an emitter, without hosting a scan group: the direct path
// of partial and prefix scans.
type pageStream struct {
	src   pageSource
	stats *core.QueryStats
	kern  *pageKernel
	task  [1]pageTask
}

func newPageStream(src pageSource, rt *core.Runtime, pkt *core.Packet, filter expr.Pred, project []int) *pageStream {
	ps := &pageStream{src: src, stats: &pkt.Query.Stats, kern: newPageKernel(src.ncols())}
	ps.task[0].prog = compileRowProgram(filter, project, src.ncols())
	return ps
}

// emitRange builds pages [lo, hi) in order, each under its pin, and adds a
// page's rows to em after it, stopping for a cancelled query (its error) or
// packet (nil).
func (ps *pageStream) emitRange(em *emitter, pkt *core.Packet, lo, hi int) error {
	for ord := lo; ord < hi; ord++ {
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		if pkt.Cancelled() {
			return nil
		}
		fresh, err := buildPage(ps.src, int64(ord), ps.kern, ps.task[:])
		if err != nil {
			return err
		}
		ps.stats.NotePage(fresh)
		if err := ps.flush(em); err != nil {
			return err
		}
	}
	return nil
}

// flush adds the rows the last page (or run) left in the task to em.
func (ps *pageStream) flush(em *emitter) error {
	out := ps.task[0].out
	ps.task[0].out = nil
	return emitBatch(em, out)
}

// IndexScanOp is the index-scan µEngine.
type IndexScanOp struct {
	reg *scanRegistry

	// leafCache memoizes each clustered tree's leaf-page-number list as of
	// one commit sequence of its table: a committed insert may split a leaf,
	// so a list from an earlier sequence is walked again — as is the list of
	// an earlier tree of the same name, which a re-index replaced.
	leafMu    sync.Mutex
	leafCache map[string]leafList
}

type leafList struct {
	tree *btree.Tree
	seq  int64 // the table's CommitSeq the list was read at
	pnos []int64
}

// NewIndexScanOp creates the index-scan µEngine implementation.
func NewIndexScanOp() *IndexScanOp {
	return &IndexScanOp{reg: newScanRegistry(), leafCache: make(map[string]leafList)}
}

// Op implements core.Operator.
func (o *IndexScanOp) Op() plan.OpType { return plan.OpIndexScan }

// materialize is the materialization enhancement (§4.3.2 second case, Figure
// 4b) for a full ordered filtered scan past its spike WoP: it saves the
// qualifying suffix of an ordered scan in progress, reads the missed prefix
// itself in order, then appends the saved rows, already in key order. ok is
// false when no ordered scan takes the suffix.
func (o *IndexScanOp) materialize(rt *core.Runtime, pkt *core.Packet, node *plan.IndexScan, src *leafSource) (ok bool, err error) {
	if _, _, live := o.ScanProgress(node.Table, node.Col); !live {
		return false, nil
	}
	// The collector's buffer never throttles the host scan.
	collector, colBuf := rt.NewInternalPacket(pkt, node)
	colBuf.SetUnbounded()
	start, why := o.AttachOrderedSuffix(node.Table, node.Col, collector, node.Filter, node.Project)
	if !why.Shared() {
		collector.Discard()
		return false, nil
	}
	rt.NoteShare(pkt, core.ShareRode, nil)
	defer colBuf.Abandon()
	// Phase 1: read the missed prefix [0, start) fresh, in key order,
	// streaming straight to the consumer.
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	ps := newPageStream(src, rt, pkt, node.Filter, node.Project)
	if err := ps.emitRange(em, pkt, 0, min(int(start), len(src.pnos))); err != nil || pkt.Cancelled() {
		return true, err
	}
	// Phase 2: the saved suffix results arrive (and are drained) in leaf
	// order == key order; append them after the prefix.
	for {
		batch, err := colBuf.Get()
		if err == io.EOF {
			return true, em.flush()
		}
		if err != nil {
			return true, err
		}
		if err := emitBatch(em, batch); err != nil {
			return true, err
		}
	}
}

func (o *IndexScanOp) key(node *plan.IndexScan) string {
	return "cix:" + node.Table + ":" + node.Col
}

// leaves returns the clustered tree's leaf pages in key order. The caller's
// query holds the table S lock, so the commit sequence read here stands for
// the whole walk.
func (o *IndexScanOp) leaves(tb *sm.Table) ([]int64, error) {
	tr, seq := tb.Clustered, tb.CommitSeq()
	o.leafMu.Lock()
	l, ok := o.leafCache[tr.Name]
	o.leafMu.Unlock()
	if ok && l.tree == tr && l.seq == seq {
		return l.pnos, nil
	}
	pnos, err := tr.LeafPageNos()
	if err != nil {
		return nil, err
	}
	o.leafMu.Lock()
	o.leafCache[tr.Name] = leafList{tree: tr, seq: seq, pnos: pnos}
	o.leafMu.Unlock()
	return pnos, nil
}

// ScanProgress reports an in-progress full clustered ordered scan's
// position and total leaf count for the merge-join split's cost model.
// ok is false when no shareable ordered scan is in progress.
func (o *IndexScanOp) ScanProgress(table, col string) (pos, total int64, ok bool) {
	o.reg.visit("cix:"+table+":"+col, func(s *scanner) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		p, n := s.parts[0].pos, s.n
		if ok = !s.circular && !s.done && p > 0 && p < n; ok {
			pos, total = p, n
		}
		return ok
	})
	return pos, total, ok
}

// AttachOrderedSuffix attaches a consumer to an in-progress ordered
// clustered scan, receiving leaves from the scanner's current position to
// the end (in key order). Returns the start position. The caller owns the
// complement (leaves 0..start-1). This is the §4.3.2 mechanism. A miss
// names the last ordered scan's refusal, or ShareNoHost.
func (o *IndexScanOp) AttachOrderedSuffix(table, col string, pkt *core.Packet, filter expr.Pred, project []int) (start int64, why core.ShareDecision) {
	why = core.ShareNoHost
	o.reg.visit("cix:"+table+":"+col, func(s *scanner) bool {
		if s.circular {
			return false
		}
		start, why = s.attachSuffix(&scanConsumer{pkt: pkt, filter: filter, project: project})
		return why.Shared()
	})
	return start, why
}

// Run implements core.Operator.
func (o *IndexScanOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.IndexScan)
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return err
	}
	// The query's shared lock on the table was acquired at submit (see
	// Runtime.Submit's query-level read locking). The fence mirrors the
	// table-scan one: index scans and their satellites read one committed
	// state, pinned by the commit counter.
	return fenced(tb, func() error {
		if node.Clustered {
			return o.runClustered(rt, pkt, tb, node)
		}
		return o.runUnclustered(rt, pkt, tb, node)
	})
}

func (o *IndexScanOp) runClustered(rt *core.Runtime, pkt *core.Packet, tb *sm.Table, node *plan.IndexScan) error {
	tr := tb.Clustered
	if tr == nil || tb.ClusteredKey != node.Col {
		return fmt.Errorf("ops: table %q has no clustered index on %q", node.Table, node.Col)
	}
	src := &leafSource{tree: tr, width: tb.Schema.Len()}
	if node.Lo.IsValid() || node.Hi.IsValid() {
		// Bounded clustered scan: stream the B+tree range directly (no
		// page-stream sharing; signature-identical packets still dedupe).
		// Each entry goes through the page kernel as a page of one row: its
		// bytes (a u16 says how many) are valid for the callback only, and
		// its layout is this scratch one, not a frame's.
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		ps := newPageStream(src, rt, pkt, node.Filter, node.Project)
		one := buffer.Layout{Rows: 1, Offs: make([]uint16, src.width+1)}
		var derr error
		err := tr.Range(node.Lo, node.Hi, func(_ tuple.Value, payload []byte) bool {
			if derr = tuple.Offsets(payload, 0, one.Offs); derr != nil {
				return false
			}
			ps.kern.run(payload, &one, ps.task[:])
			return !pkt.Cancelled() && ps.flush(em) == nil
		})
		if err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		// A flush that stopped the range callback stopped the port, which
		// keeps why: the packet completes with it, never as a clean EOF.
		return em.flush()
	}
	pnos, err := o.leaves(tb)
	if err != nil {
		return err
	}
	src.pnos = pnos
	if !node.Whole() {
		// A partial scan (LeafFrom/LeafTo: the merge-join split's prefix)
		// streams its range directly and never shares.
		lo, hi := max(node.LeafFrom, 0), node.LeafTo
		if hi < 0 || hi > len(pnos) {
			hi = len(pnos)
		}
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		ps := newPageStream(src, rt, pkt, node.Filter, node.Project)
		if err := ps.emitRange(em, pkt, lo, hi); err != nil || pkt.Cancelled() {
			return err
		}
		return em.flush()
	}
	if node.Ordered && node.Filter != nil && rt.OSPAllowed(pkt.Query) {
		if ok, err := o.materialize(rt, pkt, node, src); ok {
			return err
		}
	}
	// Unordered full clustered scans partition like table scans (leaf order
	// is irrelevant to their consumers); ordered scans stay single-partition
	// so the leaf stream keeps key order (newScanner enforces this).
	c := &scanConsumer{pkt: pkt, filter: node.Filter, project: node.Project}
	return o.reg.run(rt, o.key(node), c, node.Ordered, src, rt.ParallelismFor(pkt.Query))
}

func (o *IndexScanOp) runUnclustered(rt *core.Runtime, pkt *core.Packet, tb *sm.Table, node *plan.IndexScan) error {
	tr := tb.Unclustered[node.Col]
	if tr == nil {
		return fmt.Errorf("ops: table %q has no unclustered index on %q", node.Table, node.Col)
	}
	// Phase 1: probe the index, building the RID list (with each entry's
	// key — see the ghost re-check below). Full overlap: any identical
	// packet arriving now attaches by the µEngine's signature-exact attach
	// since no output has been produced.
	type entry struct {
		rid heap.RID
		key tuple.Value
	}
	var entries []entry
	var derr error
	err := tr.Range(node.Lo, node.Hi, func(key tuple.Value, payload []byte) bool {
		rid, e := sm.DecodeRID(payload)
		if e != nil {
			derr = e
			return false
		}
		entries = append(entries, entry{rid: rid, key: key})
		return !pkt.Cancelled()
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	if !node.Ordered {
		// Sort RIDs in ascending page order to visit each heap page once.
		sort.Slice(entries, func(i, j int) bool { return entries[i].rid.Less(entries[j].rid) })
	}
	// Phase 2: fetch. Unclustered indexes are maintained lazily under
	// transactional mutation: deletes leave the entry behind (the heap slot
	// is tombstoned) and updates that change the key add a new entry without
	// removing the old. Both ghosts are filtered here — a tombstoned RID is
	// skipped, and a fetched row whose indexed column no longer equals the
	// entry's key belongs to a newer version reachable through its own entry.
	keyIx := tb.Schema.MustColIndex(node.Col)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	var arena tuple.RowArena
	for _, e := range entries {
		if cerr := pkt.Query.CancelErr(); cerr != nil {
			return cerr
		}
		if pkt.Cancelled() {
			return nil
		}
		row, err := tb.Heap.ReadTuple(e.rid)
		if err != nil {
			if errors.Is(err, heap.ErrDeleted) {
				continue
			}
			return err
		}
		if tuple.Compare(row[keyIx], e.key) != 0 {
			continue // ghost: key changed since this entry was made
		}
		if node.Filter == nil || node.Filter.Test(row) {
			out := row
			if node.Project != nil {
				out = arena.Project(row, node.Project)
			}
			if err := em.add(out); err != nil {
				return err
			}
		}
	}
	return em.flush()
}
