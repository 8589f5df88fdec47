// Join µEngines.
//
//   - Merge join: step overlap via the default attach; additionally
//     implements the §4.3.2 ordered-scan split (Figure 9): when its parent
//     is order-insensitive and an identical ordered clustered scan is
//     already in progress, the OSP coordinator evaluates the join as two
//     packets — the in-progress scan's suffix joined against a fresh read
//     of the non-shared input, then the missed prefix joined against a
//     second read — at worst reading the non-shared relation twice, and
//     only when the cost model says the sharing pays off.
//   - Hybrid hash join: the build phase is a full overlap, probe is step
//     (Figure 11). Small builds stay in memory; larger ones partition both
//     inputs to spill files with partition 0 memory-resident (hybrid).
//   - Nested-loop join: step overlap; inner input is materialized.
package ops

import (
	"context"
	"math"
	"unsafe"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// ---- Merge join ---------------------------------------------------------------

// MergeJoinOp is the merge-join µEngine.
type MergeJoinOp struct {
	iscan *IndexScanOp // consulted for in-progress ordered scans
}

// NewMergeJoinOp creates the merge-join µEngine; it consults the index-scan
// µEngine's registry for the ordered-scan split.
func NewMergeJoinOp(iscan *IndexScanOp) *MergeJoinOp { return &MergeJoinOp{iscan: iscan} }

// Op implements core.Operator.
func (*MergeJoinOp) Op() plan.OpType { return plan.OpMergeJoin }

// Run implements core.Operator.
func (o *MergeJoinOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.MergeJoin)
	gated := len(pkt.Children) == 2 &&
		(pkt.Children[0].State() == core.PacketGated || pkt.Children[1].State() == core.PacketGated)
	if gated && rt.OSPAllowed(pkt.Query) && !node.OrderedParent {
		if why, err := o.trySplit(rt, pkt, node); why.Shared() {
			return err
		}
	}
	// Normal evaluation: release gated children (late activation) and merge.
	for _, c := range pkt.Children {
		rt.Activate(c)
	}
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	if err := mergeJoin(newCursor(pkt.Inputs[0]), newCursor(pkt.Inputs[1]), node.LKey, node.RKey, em); err != nil {
		return err
	}
	return em.flush()
}

// splitCandidate finds the gated ordered clustered full scan child worth
// splitting onto: of those with a host scan in progress, the one whose shared
// suffix saves the most pages over one more read of the other input — the
// cost check of §4.3.2 — if any saves at all. It returns the child's index,
// or why there is none: no scan in progress, or each too far along.
func (o *MergeJoinOp) splitCandidate(rt *core.Runtime, node *plan.MergeJoin, pkt *core.Packet) (idx int, is *plan.IndexScan, why core.ShareDecision) {
	best, why := int64(0), core.ShareNoHost
	for i, c := range node.Children() {
		cis, isScan := c.(*plan.IndexScan)
		if !isScan || !cis.Whole() || !cis.Ordered {
			continue
		}
		if pkt.Children[i].State() != core.PacketGated {
			continue
		}
		pos, total, live := o.iscan.ScanProgress(cis.Table, cis.Col)
		if !live {
			continue
		}
		why = core.ShareWindowClosed
		if gain := total - pos - o.otherSideCost(rt, node.Children()[1-i]); gain > best {
			idx, is, best = i, cis, gain
		}
	}
	return idx, is, why
}

// otherSideCost estimates the page count of re-reading the non-shared input
// once more (the split's worst-case added cost).
func (o *MergeJoinOp) otherSideCost(rt *core.Runtime, other plan.Node) int64 {
	switch n := other.(type) {
	case *plan.TableScan:
		if tb, err := rt.SM.Table(n.Table); err == nil {
			return tb.Heap.NumPages()
		}
	case *plan.IndexScan:
		if tb, err := rt.SM.Table(n.Table); err == nil {
			if n.Clustered && tb.Clustered != nil {
				return tb.Clustered.NumPages()
			}
			return tb.Heap.NumPages()
		}
	}
	// Non-scan input (e.g. a sort): treat as expensive — do not split.
	return 1 << 40
}

// trySplit attempts the two-packet evaluation and counts the decision:
// ShareSplit when the split ran (err carries its outcome), else the miss, and
// the join evaluates normally.
func (o *MergeJoinOp) trySplit(rt *core.Runtime, pkt *core.Packet, node *plan.MergeJoin) (core.ShareDecision, error) {
	// Sharing saves re-reading the suffix of the shared relation but costs
	// one extra read of the non-shared relation.
	idx, sharedScan, why := o.splitCandidate(rt, node, pkt)
	var start int64
	var sufBuf *tbuf.Buffer
	if sharedScan != nil { // attach the suffix consumer to the in-progress scan
		var sufPkt *core.Packet
		sufPkt, sufBuf = rt.NewInternalPacket(pkt, sharedScan)
		start, why = o.iscan.AttachOrderedSuffix(sharedScan.Table, sharedScan.Col, sufPkt, sharedScan.Filter, sharedScan.Project)
		if why.Shared() {
			why = core.ShareSplit
		} else {
			sufPkt.Discard()
		}
	}
	rt.NoteShare(pkt, why, nil)
	if !why.Shared() {
		return why, nil
	}
	// The original gated children are replaced entirely.
	for _, c := range pkt.Children {
		c.Discard()
	}

	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	// Packet 1: suffix of the shared relation ⋈ fresh read of the other.
	if err := mergeSides(rt, pkt, idx, sufBuf, node, em); err != nil {
		return why, err
	}
	// Packet 2: the missed prefix (leaves [0, start)) ⋈ the other side
	// again (the worst-case second read the cost model accounted for).
	prefix := *sharedScan
	prefix.LeafFrom, prefix.LeafTo = 0, int(start)
	prefixBuf, _ := rt.DispatchSubtree(pkt, &prefix)
	if err := mergeSides(rt, pkt, idx, prefixBuf, node, em); err != nil {
		return why, err
	}
	return why, em.flush()
}

// mergeSides merges the shared stream, on side sharedIdx, with a fresh read of
// the join's other input, which pkt, the join's packet, reads. Whatever the
// outcome, it releases the producers still feeding both buffers.
func mergeSides(rt *core.Runtime, pkt *core.Packet, sharedIdx int, shared *tbuf.Buffer, node *plan.MergeJoin, em *emitter) error {
	other, _ := rt.DispatchSubtree(pkt, node.Children()[1-sharedIdx])
	defer other.Abandon()
	defer shared.Abandon()
	l, r := newCursor(shared), newCursor(other)
	if sharedIdx == 1 {
		l, r = r, l
	}
	return mergeJoin(l, r, node.LKey, node.RKey, em)
}

// mergeJoin is the standard ordered merge with duplicate-group handling.
// Join rows carve from an arena (one chunk allocation per ~few thousand
// values instead of one per output row).
func mergeJoin(l, r *cursor, lkey, rkey int, em *emitter) error {
	var arena tuple.RowArena
	for {
		lt, lok, err := l.peek()
		if err != nil {
			return err
		}
		rtup, rok, err := r.peek()
		if err != nil {
			return err
		}
		if !lok || !rok {
			return nil
		}
		c := tuple.Compare(lt[lkey], rtup[rkey])
		switch {
		case c < 0:
			if _, _, err := l.next(); err != nil {
				return err
			}
		case c > 0:
			if _, _, err := r.next(); err != nil {
				return err
			}
		default:
			lg, err := l.group(lkey, lt[lkey])
			if err != nil {
				return err
			}
			rg, err := r.group(rkey, lt[lkey])
			if err != nil {
				return err
			}
			for _, a := range lg {
				for _, b := range rg {
					if err := em.add(arena.Concat(a, b)); err != nil {
						return err
					}
				}
			}
		}
	}
}

// group takes the run of rows at the cursor whose column key equals v.
func (c *cursor) group(key int, v tuple.Value) (g []tuple.Tuple, err error) {
	for {
		t, ok, err := c.peek()
		if err != nil || !ok || !tuple.Equal(t[key], v) {
			return g, err
		}
		c.next()
		g = append(g, t)
	}
}

// ---- Hybrid hash join -----------------------------------------------------------

// hashJoinMaxBuild is the in-memory build limit in tuples; larger builds
// partition to disk.
const hashJoinMaxBuild = 1 << 16

// HashJoinOp is the hybrid-hash-join µEngine. Core's signature-exact attach
// gives it Figure 11's window: the whole build phase (a full overlap, nothing
// is produced) and the probe while its output fits the replay window.
type HashJoinOp struct{}

// NewHashJoinOp creates the hash-join µEngine implementation.
func NewHashJoinOp() *HashJoinOp { return &HashJoinOp{} }

// Op implements core.Operator.
func (*HashJoinOp) Op() plan.OpType { return plan.OpHashJoin }

// Run implements core.Operator.
func (o *HashJoinOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.HashJoin)
	par := rt.ParallelismFor(pkt.Query)

	// Build phase: drain the left input. If it stays small, join in memory.
	build := &hashTable{}
	nBuild := 0
	lcur := newCursor(pkt.Inputs[0])
	small := true
	var overflow []tuple.Tuple
	for {
		t, ok, err := lcur.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		nBuild++
		if nBuild > hashJoinMaxBuild {
			// Switch to the partitioned path; the rest of the build input
			// is drained there, straight into partition files.
			small = false
			overflow = append(overflow, t)
			break
		}
		build.add(tuple.Hash1(t, node.LKey), t)
	}
	handDown(rt, pkt, node, build, small)
	if small {
		return o.probeInMemory(rt, pkt, node, build, par)
	}
	return o.partitionedJoin(rt, pkt, node, build, overflow, lcur, par)
}

// probeInMemory streams the probe input against the completed in-memory
// build table. The table is read-only from here on, so parallel probing
// needs no partition affinity: raw input batches are dealt to par
// sub-workers, each probing with its own emitter into the shared output
// port (SharedOut.Put is multi-producer-safe; join output carries no order
// guarantee, and the replay window stays consistent because the produced
// counter and replay append share one critical section — so OSP satellites
// attaching mid-probe still replay exactly what was produced).
func (o *HashJoinOp) probeInMemory(rt *core.Runtime, pkt *core.Packet, node *plan.HashJoin, build *hashTable, par int) error {
	// Each worker owns an emitter and a row arena (arenas are not
	// goroutine-safe); output rows carve from the arena instead of
	// allocating per match.
	probe := func(em *emitter, arena *tuple.RowArena, t tuple.Tuple) error {
		return probeTable(build, node, em, arena, t, tuple.Hash1(t, node.RKey))
	}
	if par <= 1 {
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		var arena tuple.RowArena
		rcur := newCursor(pkt.Inputs[1])
		for {
			t, ok, err := rcur.next()
			if err != nil {
				return err
			}
			if !ok {
				return em.flush()
			}
			if err := probe(em, &arena, t); err != nil {
				return err
			}
		}
	}
	err := parFeed(rt, pkt, pkt.Inputs[1], nil, par, func(k int, ch <-chan tbuf.Batch) error {
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		var arena tuple.RowArena
		for b := range ch {
			for _, t := range b {
				if err := probe(em, &arena, t); err != nil {
					return err
				}
			}
		}
		return em.flush()
	})
	return err
}

// partitionedJoin is the hybrid path: partition 0 of the build side stays
// memory-resident (it is already in `build`), the rest spills; the probe
// side joins partition 0 on the fly while spilling the others; remaining
// partitions then join pairwise from disk.
//
// With par > 1 every phase fans out to join sub-workers. The spill phases
// use partition-affine routing (worker k owns partitions p with p%par == k,
// so each spill writer — and the partition-0 memory table, owned by worker
// 0 — has exactly one writing worker), and the disk phase joins each
// worker's partition set independently. The partition files are the
// packet's (newSpillWriter): the µEngine drops them after Run, whichever
// write, close or routed worker fails.
func (o *HashJoinOp) partitionedJoin(rt *core.Runtime, pkt *core.Packet, node *plan.HashJoin, mem *hashTable, overflow []tuple.Tuple, lcur *cursor, par int) error {
	// Spill fan-out for partitions 1..parts. At least 8 (the seed's hybrid
	// fan-out); wider when more workers want distinct partition sets.
	parts := 8
	if par > parts {
		parts = par
	}
	lcols := node.Left.Schema().Len()
	rcols := node.Right.Schema().Len()
	lkey, rkey := []int{node.LKey}, []int{node.RKey}

	// Re-partition: the in-memory map keeps only tuples hashing to
	// partition 0; everything else (plus overflow) spills.
	partOf := func(h uint64) int { return int((h >> 32) % uint64(parts+1)) }
	home := func(h uint64) int { return partOf(h) % par }
	buildFiles := make([]*spillWriter, parts+1)
	for i := 1; i <= parts; i++ {
		buildFiles[i] = newSpillWriter(rt, pkt, "hjb")
	}
	mem0 := &hashTable{}
	buildOne := func(t tuple.Tuple, h uint64) error {
		p := partOf(h)
		if p == 0 {
			mem0.add(h, t)
			return nil
		}
		return buildFiles[p].add(t)
	}
	// feedBuild replays the tuples hashed so far (the table kept their
	// hashes) and drains the rest of the build input.
	feedBuild := func(emit func(tuple.Tuple, uint64) error) error {
		for i, t := range mem.rows {
			if err := emit(t, mem.hash[i]); err != nil {
				return err
			}
		}
		for _, t := range overflow {
			if err := emit(t, tuple.HashAt(t, lkey)); err != nil {
				return err
			}
		}
		for {
			t, ok, err := lcur.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := emit(t, tuple.HashAt(t, lkey)); err != nil {
				return err
			}
		}
	}
	if par <= 1 {
		if err := feedBuild(buildOne); err != nil {
			return err
		}
	} else {
		err := routeAffine(rt, pkt, par, home,
			func(k int, ch <-chan []routed) error {
				for items := range ch {
					for _, it := range items {
						if err := buildOne(it.t, it.h); err != nil {
							return err
						}
					}
				}
				return nil
			}, feedBuild)
		if err != nil {
			return err
		}
	}
	for i := 1; i <= parts; i++ {
		if _, err := buildFiles[i].close(); err != nil {
			return err
		}
	}

	// Probe: join partition 0 immediately (against the worker-0-owned
	// memory table), spill the rest.
	probeFiles := make([]*spillWriter, parts+1)
	for i := 1; i <= parts; i++ {
		probeFiles[i] = newSpillWriter(rt, pkt, "hjp")
	}
	probeOne := func(em *emitter, arena *tuple.RowArena, t tuple.Tuple, h uint64) error {
		p := partOf(h)
		if p == 0 {
			return probeTable(mem0, node, em, arena, t, h)
		}
		return probeFiles[p].add(t)
	}
	feedProbe := func(emit func(tuple.Tuple, uint64) error) error {
		rcur := newCursor(pkt.Inputs[1])
		for {
			t, ok, err := rcur.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := emit(t, tuple.HashAt(t, rkey)); err != nil {
				return err
			}
		}
	}
	if par <= 1 {
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		var arena tuple.RowArena
		if err := feedProbe(func(t tuple.Tuple, h uint64) error { return probeOne(em, &arena, t, h) }); err != nil {
			return err
		}
		if err := em.flush(); err != nil {
			return err
		}
	} else {
		err := routeAffine(rt, pkt, par, home,
			func(k int, ch <-chan []routed) error {
				em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
				var arena tuple.RowArena
				for items := range ch {
					for _, it := range items {
						if err := probeOne(em, &arena, it.t, it.h); err != nil {
							return err
						}
					}
				}
				return em.flush()
			}, feedProbe)
		if err != nil {
			return err
		}
	}
	for i := 1; i <= parts; i++ {
		if _, err := probeFiles[i].close(); err != nil {
			return err
		}
	}

	// Per-partition joins from disk: fully independent, so worker k joins
	// its own partition set back to back.
	joinPart := func(em *emitter, arena *tuple.RowArena, i int) error {
		table := &hashTable{}
		br := newSpillReader(rt.SM.Disk, buildFiles[i].name, lcols)
		for {
			t, ok, err := br.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			table.add(tuple.HashAt(t, lkey), t)
		}
		pr := newSpillReader(rt.SM.Disk, probeFiles[i].name, rcols)
		for {
			t, ok, err := pr.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := probeTable(table, node, em, arena, t, tuple.HashAt(t, rkey)); err != nil {
				return err
			}
		}
	}
	err := rt.Fan(pkt, par, func(ctx context.Context, k int) error {
		em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
		var arena tuple.RowArena
		for i := k + 1; i <= parts; i += par {
			// A cancelled query or a failed sibling must not grind through
			// the remaining partition files; OSP-cancelled packets (flag
			// only, live query) stop through the port instead.
			if cerr := pkt.Query.CancelErr(); cerr != nil {
				return cerr
			}
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if err := joinPart(em, &arena, i); err != nil {
				return err
			}
		}
		return em.flush()
	})
	return err
}

// probeTable emits probe row t, whose key hashes to h, joined with every
// build row of the table that has its key.
func probeTable(build *hashTable, node *plan.HashJoin, em *emitter, arena *tuple.RowArena, t tuple.Tuple, h uint64) error {
	for i := build.first(h); i >= 0; i = build.after(i, h) {
		if b := build.rows[i]; tuple.Equal(b[node.LKey], t[node.RKey]) {
			if err := em.add(arena.Concat(b, t)); err != nil {
				return err
			}
		}
	}
	return nil
}

// handDown is the one place a hash join whose build has ended decides what
// its probe input is handed, and why nothing. A probe input served page by
// page (pagedScan) gets a finished in-memory build side sideways (buildKeys):
// a direct table of the build keys when they are small integers, by which the
// scan builds exactly the rows that join, or else a bitmap of 16 bits per
// build row over the keys' hashes, by which it stops building rows no build
// key can match — three quarters of a probe side the join would otherwise
// throw away (core.Packet.Narrow). When the join's reader is an aggregate that
// handed its accumulators to the join's packet, they go down in its place,
// completed with the build table and the keys as their first step (PassFold):
// the scan then adds each pair up where it lies and the join is sent no row.
// The join looks once — the read closes the slot, so an aggregate that comes
// later is refused as late and adds the join's rows. The join compares keys
// whatever became of it; that is counted by reason.
func handDown(rt *core.Runtime, pkt *core.Packet, node *plan.HashJoin, build *hashTable, small bool) {
	fold, _ := pkt.TakeHanded().(*scanFold)
	project, why := pagedScan(node.Right)
	if why == core.HandOverInstalled && !small {
		why = core.HandOverBuildTooLarge
	}
	if why != core.HandOverInstalled {
		rt.NoteHandOver(pkt.Query, why)
		return
	}
	col := node.RKey
	if project != nil {
		col = project[col]
	}
	if fold == nil {
		pkt.Children[1].Narrow(rt, buildKeys(build, node.LKey, col))
		return
	}
	fold.build, fold.lkey, fold.width, fold.probe = build, node.LKey, node.Left.Schema().Len(), buildKeys(build, node.LKey, col)
	pkt.Children[1].PassFold(rt, fold)
}

// buildKeys is a build side's keys, its rows' column lkey, as a scan whose
// table column col is the probe key sees them. When every key is an INT or a
// DATE within ±2^53 — so a FLOAT equals one exactly when it is integral and
// its int64 is the key — and the table, four bytes a key of the span between
// the least and the greatest and four a build row, takes no more room than
// the build rows' own values, it is a direct table; otherwise (an empty build
// side too) a bitmap of 16 bits a build row, at least 64.
func buildKeys(build *hashTable, lkey, col int) *core.KeyFilter {
	f := &core.KeyFilter{Col: col}
	if lo, span, ok := keySpan(build.rows, lkey); ok {
		f.Base, f.Dense, f.Next = lo, make([]int32, span), make([]int32, len(build.rows))
		for b, r := range build.rows {
			d := &f.Dense[r[lkey].I-lo]
			f.Next[b], *d = *d, int32(b+1)
		}
		return f
	}
	f.Shift = 64 - 6
	for 1<<(64-f.Shift) < 16*len(build.rows) {
		f.Shift--
	}
	f.Bits = make([]uint64, 1<<(64-f.Shift)/64)
	for _, h := range build.hash {
		bit := h >> f.Shift
		f.Bits[bit>>6] |= 1 << (bit & 63)
	}
	return f
}

// keySpan returns the least of rows' column key and how many integers lie
// from it to the greatest, when every key is an INT or a DATE within ±2^53
// and a direct table over them fits in the bytes of the rows' values.
func keySpan(rows []tuple.Tuple, key int) (lo, span int64, ok bool) {
	if len(rows) == 0 {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, r := range rows {
		v := r[key]
		if v.K != tuple.KindInt && v.K != tuple.KindDate || v.I < -1<<53 || v.I > 1<<53 {
			return 0, 0, false
		}
		lo, hi = min(lo, v.I), max(hi, v.I)
	}
	n := int64(len(rows))
	span = hi - lo + 1
	return lo, span, 4*(span+n) <= n*int64(len(rows[0]))*int64(unsafe.Sizeof(tuple.Value{}))
}

// ---- Nested-loop join -----------------------------------------------------------

// NLJoinOp is the nested-loop join µEngine (step overlap).
type NLJoinOp struct{}

// NewNLJoinOp creates the nested-loop-join µEngine implementation.
func NewNLJoinOp() *NLJoinOp { return &NLJoinOp{} }

// Op implements core.Operator.
func (*NLJoinOp) Op() plan.OpType { return plan.OpNLJoin }

// Run implements core.Operator: the inner (right) input is materialized in
// memory, the outer streams.
func (*NLJoinOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.NLJoin)
	inner, err := drainAll(pkt.Inputs[1])
	if err != nil {
		return err
	}
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	var arena tuple.RowArena
	lcur := newCursor(pkt.Inputs[0])
	for {
		t, ok, err := lcur.next()
		if err != nil {
			return err
		}
		if !ok {
			return em.flush()
		}
		for _, in := range inner {
			joined := arena.Concat(t, in)
			if node.Pred == nil || node.Pred.Test(joined) {
				if err := em.add(joined); err != nil {
					return err
				}
			}
		}
	}
}
