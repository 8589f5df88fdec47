// Pass-through µEngines (filter, project), aggregation µEngines (scalar
// aggregate: full overlap; hash group-by: step overlap) and the update
// µEngine (no OSP, table X locks — paper §4.3.4). The aggregation engines
// share one accumulate path: partial group tables, filled by sub-workers
// from input batches and by the scan below from its pages, merged at the end
// via AggState.Merge.
package ops

import (
	"context"
	"fmt"
	"io"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// FilterOp drops tuples failing its predicate.
type FilterOp struct{}

// NewFilterOp creates the filter µEngine implementation.
func NewFilterOp() *FilterOp { return &FilterOp{} }

// Op implements core.Operator.
func (*FilterOp) Op() plan.OpType { return plan.OpFilter }

// Run implements core.Operator.
func (*FilterOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.Filter)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	cur := newCursor(pkt.Inputs[0])
	for {
		t, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			return em.flush()
		}
		if node.Pred.Test(t) {
			if err := em.add(t); err != nil {
				return err
			}
		}
	}
}

// ProjectOp evaluates output expressions per input tuple.
type ProjectOp struct{}

// NewProjectOp creates the project µEngine implementation.
func NewProjectOp() *ProjectOp { return &ProjectOp{} }

// Op implements core.Operator.
func (*ProjectOp) Op() plan.OpType { return plan.OpProject }

// Run implements core.Operator.
func (*ProjectOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.Project)
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	var arena tuple.RowArena
	cur := newCursor(pkt.Inputs[0])
	for {
		t, ok, err := cur.next()
		if err != nil {
			return err
		}
		if !ok {
			return em.flush()
		}
		out := arena.Make(len(node.Exprs))
		for i, e := range node.Exprs {
			out[i] = e.Eval(t)
		}
		if err := em.add(out); err != nil {
			return err
		}
	}
}

// groupTable is one worker's (partial) hash-grouped aggregation state: the
// table's rows are the groups' projected keys, in order of first sight, and
// states[i] the accumulators of group i. A scalar aggregate is a table
// without key: one group, of every row. A scan worker's partial of a fold
// through a join whose keys are all build columns also remembers each build
// row's group (ofBuild, -1 until first seen); one of a fold whose one key is
// a scanned column remembers the groups of the numbers it saw last, one a
// slot of a small direct-mapped memo (pageKernel.memoized).
type groupTable struct {
	keys    []int
	specs   []expr.AggSpec
	groups  hashTable
	states  [][]*expr.AggState
	ofBuild []int32
	memo    *[256]memoEntry
}

// memoEntry is a number, by its kind and raw bits, and its group. The zero
// entry matches nothing: a vector's kind is never KindInvalid.
type memoEntry struct {
	bits  uint64
	kind  tuple.Kind
	group int32
}

func newGroupTable(keys []int, specs []expr.AggSpec) *groupTable {
	return &groupTable{keys: keys, specs: specs}
}

// lookup finds the group whose key, hashing to h, equals the columns cols of
// t — the key columns of an input row, or every column of another table's
// group key — or -1. (Taking the tuple directly — rather than a per-row
// accessor closure — keeps the per-input-row path allocation-free.)
func (gt *groupTable) lookup(h uint64, t tuple.Tuple, cols []int) int {
next:
	for g := gt.groups.first(h); g >= 0; g = gt.groups.after(g, h) {
		for i, k := range cols {
			if !tuple.Equal(gt.groups.rows[g][i], t[k]) {
				continue next
			}
		}
		return g
	}
	return -1
}

// newGroup starts the group of key, which hashes to h, and returns its
// number.
func (gt *groupTable) newGroup(h uint64, key tuple.Tuple) int {
	states := make([]*expr.AggState, len(gt.specs))
	for i, s := range gt.specs {
		states[i] = expr.NewAggState(s)
	}
	gt.states = append(gt.states, states)
	return gt.groups.add(h, key)
}

// add folds one input tuple into its group, creating the group on first
// sight.
func (gt *groupTable) add(t tuple.Tuple) {
	h := tuple.HashAt(t, gt.keys)
	g := gt.lookup(h, t, gt.keys)
	if g < 0 {
		g = gt.newGroup(h, t.Project(gt.keys))
	}
	for _, st := range gt.states[g] {
		st.Add(t)
	}
}

// absorb merges another worker's partial table into gt — a sub-worker's,
// filled from rows, or a scan worker's, filled from pages: groups present in
// both merge state-wise (AggState.Merge combines the accumulators exactly —
// sums add, counts add, min/max compare), groups unique to o transfer whole.
func (gt *groupTable) absorb(o *groupTable) {
	whole := make([]int, len(gt.keys))
	for i := range whole {
		whole[i] = i
	}
	for og, key := range o.groups.rows {
		h := o.groups.hash[og]
		g := gt.lookup(h, key, whole)
		if g < 0 {
			gt.groups.add(h, key)
			gt.states = append(gt.states, o.states[og])
			continue
		}
		for i, st := range gt.states[g] {
			st.Merge(o.states[og][i])
		}
	}
}

// aggregate is the one accumulate path of the two aggregation µEngines: pkt's
// whole input grouped by keys (a scalar aggregate has none, and one group even
// of no row), emitted. Partial tables come from rows — added here, or with
// parallelism > 1 by sub-workers over dealt input batches — and from the scan:
// an input served page by page is handed the accumulators
// (core.Packet.SetFold) and its workers add the rows they keep to partials of
// their own without building them; so is a hash join over such a probe input,
// which passes them on with its build side (HashJoinOp.handDown) and builds no
// probe row. Late is harmless: pages delivered before arrive as rows, and
// every partial is registered before the scan packet completes, so all are
// there at EOF. absorb is the single merge.
func aggregate(rt *core.Runtime, pkt *core.Packet, keys []int, specs []expr.AggSpec, scalar bool) error {
	var fold *scanFold
	scan := pkt.Node.Children()[0]
	if join, through := scan.(*plan.HashJoin); through {
		scan = join.Right
	}
	if _, why := pagedScan(scan); why != core.HandOverInstalled {
		rt.NoteHandOver(pkt.Query, why)
	} else if f := (&scanFold{keys: keys, specs: specs}); pkt.Children[0].SetFold(rt, f) == core.HandOverInstalled {
		fold = f
	}
	in, par := pkt.Inputs[0], rt.ParallelismFor(pkt.Query)
	total, tables := newGroupTable(keys, specs), make([]*groupTable, par)
	add := func(gt *groupTable, b tbuf.Batch) {
		for _, t := range b {
			gt.add(t)
		}
	}
	// A folded aggregate's input is usually empty: no feeder starts before
	// a first batch is there.
	switch b, err := in.Get(); {
	case err == io.EOF:
	case err != nil:
		return err
	case par <= 1:
		for ; err == nil; b, err = in.Get() {
			add(total, b)
		}
		if err != io.EOF {
			return err
		}
	default:
		err := parFeed(rt, pkt, in, b, par, func(k int, ch <-chan tbuf.Batch) error {
			tables[k] = newGroupTable(keys, specs)
			for b := range ch {
				add(tables[k], b)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if fold != nil { // the scan packet has completed: its workers are done with these
		fold.mu.Lock()
		tables = append(tables, fold.partials...)
		fold.mu.Unlock()
	}
	for _, t := range tables {
		if t != nil {
			total.absorb(t)
		}
	}
	if scalar && len(total.states) == 0 {
		total.newGroup(tuple.HashSeed, nil) // count(*) of nothing is still 0
	}
	// Every group's result row, in one carve.
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	var arena tuple.RowArena
	arena.Grow(len(total.states) * (len(keys) + len(specs)))
	for g, key := range total.groups.rows {
		row := arena.Make(len(key) + len(specs))
		copy(row, key)
		for i, st := range total.states[g] {
			row[len(key)+i] = st.Result()
		}
		_ = em.add(row) // the groups are in hand: a stop wastes the rest, the port keeps why
	}
	return em.flush()
}

// pagedScan reports whether n is a scan the scanner serves page by page — a
// table scan or a full clustered index scan, the inputs a consumer can hand
// something down to — with its projection, or why not.
func pagedScan(n plan.Node) (project []int, why core.HandOver) {
	switch scan := n.(type) {
	case *plan.TableScan:
		return scan.Project, core.HandOverInstalled
	case *plan.IndexScan:
		if !scan.Clustered || scan.Lo.IsValid() || scan.Hi.IsValid() {
			return nil, core.HandOverBoundedIndexRange
		}
		return scan.Project, core.HandOverInstalled
	}
	return nil, core.HandOverNotAScan
}

// AggregateOp computes scalar aggregates — the canonical full-overlap
// operator: it emits nothing until the very end, so an identical packet can
// attach at any point of its lifetime and save 100% of the work.
type AggregateOp struct{}

// NewAggregateOp creates the scalar-aggregate µEngine implementation.
func NewAggregateOp() *AggregateOp { return &AggregateOp{} }

// Op implements core.Operator.
func (*AggregateOp) Op() plan.OpType { return plan.OpAggregate }

// Run implements core.Operator.
func (*AggregateOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.Aggregate)
	return aggregate(rt, pkt, nil, node.Specs, true)
}

// GroupByOp computes hash-grouped aggregates (step overlap: attachable
// until results start flowing; the burst emit at the end plus the replay
// window give satellites nearly the whole lifetime in practice, which is
// the paper's "buffering can significantly increase the WoP for group-by").
type GroupByOp struct{}

// NewGroupByOp creates the hash group-by µEngine implementation.
func NewGroupByOp() *GroupByOp { return &GroupByOp{} }

// Op implements core.Operator.
func (*GroupByOp) Op() plan.OpType { return plan.OpGroupBy }

// Run implements core.Operator.
func (*GroupByOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.GroupBy)
	return aggregate(rt, pkt, node.Keys, node.Specs, false)
}

// UpdateOp runs table mutations (INSERT/UPDATE/DELETE) as storage-manager
// transactions. Its packets are never shared (§4.3.4): the µEngine's
// attach decision leaves update packets out.
type UpdateOp struct{}

// NewUpdateOp creates the update µEngine implementation.
func NewUpdateOp() *UpdateOp { return &UpdateOp{} }

// Op implements core.Operator.
func (*UpdateOp) Op() plan.OpType { return plan.OpUpdate }

// Run implements core.Operator: stage the mutation in a fresh transaction
// and commit it (the autocommit path — explicit transactions stage through
// StageMutation with the session's transaction instead, bypassing the
// engine). The query's cancel and deadline stop it up to the commit, not
// after: the reply is the commit's outcome.
func (*UpdateOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.Update)
	ctx := pkt.Query.Ctx()
	tx := rt.SM.Begin()
	n, err := StageMutation(ctx, tx, node)
	if err == nil {
		err = pkt.Query.BeginCommit()
	}
	if err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	em := newEmitter(pkt, rt.BatchSizeFor(pkt.Query))
	_ = em.add(tuple.Tuple{tuple.I64(n)}) // the port keeps why it stopped
	return em.flush()
}

// StageMutation stages one plan.Update node's effect into tx, returning the
// number of affected rows. It does not commit — the caller owns the
// transaction (UpdateOp commits immediately; the facade's explicit
// transactions accumulate statements and commit on COMMIT). UPDATE and
// DELETE scan through the transaction's own overlay, so later statements in
// a transaction see earlier ones' effects.
func StageMutation(ctx context.Context, tx *sm.Tx, node *plan.Update) (int64, error) {
	switch node.Kind {
	case plan.MutInsert:
		for _, row := range node.Rows {
			if err := tx.StageInsert(ctx, node.Table, row); err != nil {
				return 0, err
			}
		}
		return int64(len(node.Rows)), nil
	case plan.MutUpdate, plan.MutDelete:
		var n int64
		var stageErr error
		err := tx.ScanEffective(ctx, node.Table, func(rid heap.RID, row tuple.Tuple) bool {
			if node.Where != nil && !node.Where.Test(row) {
				return true
			}
			if node.Kind == plan.MutDelete {
				stageErr = tx.StageDelete(ctx, node.Table, rid)
			} else {
				// All assignments evaluate against the old row (SQL semantics:
				// SET a=b, b=a swaps).
				newRow := row.Clone()
				for _, a := range node.Set {
					newRow[a.Col] = a.E.Eval(row)
				}
				stageErr = tx.StageUpdate(ctx, node.Table, rid, newRow)
			}
			if stageErr != nil {
				return false
			}
			n++
			return true
		})
		if err == nil {
			err = stageErr
		}
		return n, err
	default:
		return 0, fmt.Errorf("ops: unknown mutation kind %v", node.Kind)
	}
}
