// Join ordering: the pass that gives every tree of joins over scans one
// order whatever order the query named its tables in, so that `a JOIN b`,
// `b JOIN a` and `FROM a, b WHERE …` converge on one plan and one signature
// (sharing is found by signature, §4.3). A tree is a maximal nest of
// HashJoin and NLJoin nodes, with the Filters between them, whose leaves
// are all TableScans or IndexScans; a tree with any other leaf (a Sort, a
// MergeJoin, a projection) is left as written, and so is one whose columns
// reach the root unprojected (SELECT *): like every pass, this one keeps
// the root schema, and it never mutates its input.
//
// The tree's join keys and cross-input predicates are pooled in its output
// positions, and its leaves ordered greedily by the cardinality estimate it
// is given (the one EXPLAIN prints): the smallest input first, then the
// connected input whose join with the prefix is estimated smallest; ties
// break on the input's rows, its table name, then its written position.
// The tree is rebuilt left-deep — the prefix is the build side of a hash
// join on the first connecting equality in Signature() order, or the outer
// side of a nested-loop join when none connects — with the other pooled
// predicates as Filters, normalized again; the references above it are
// re-based as PruneColumns re-bases them. It runs after Normalize (filters
// already sit in the scans) and before PruneColumns.
package plan

import (
	"slices"

	"qpipe/internal/expr"
)

// ReorderJoins returns the plan with every join tree over scans in the
// order rows, an output-cardinality estimate, prices cheapest.
func ReorderJoins(n Node, rows func(Node) float64) Node {
	out, _ := reorder(n, rows, true, false)
	return out
}

// reorder is ReorderJoins below n: fixed says n's output positions must
// stay, inner that n is an inner node of a tree already considered.
func reorder(n Node, rows func(Node) float64, fixed, inner bool) (Node, []int) {
	tree := isTreeNode(n)
	if tree && !fixed && !inner {
		if out, m, ok := reorderTree(n, rows); ok {
			return out, m
		}
	}
	switch n.(type) {
	case *Project, *Aggregate, *GroupBy: // they compute their own columns
		fixed = false
	}
	kids := slices.Clone(n.Children())
	maps := make([][]int, len(kids))
	changed := false
	for i, k := range kids {
		kids[i], maps[i] = reorder(k, rows, fixed, tree)
		changed = changed || kids[i] != k
	}
	if !changed {
		return n, nil
	}
	return rebase(n, kids, maps)
}

func isTreeNode(n Node) bool {
	switch x := n.(type) {
	case *HashJoin, *NLJoin:
		return true
	case *Filter:
		return isTreeNode(x.Child)
	}
	return false
}

// joinTree is one tree being rebuilt: its leaves, where each starts in the
// tree's output as written, and its pooled predicates in those positions.
type joinTree struct {
	leaves []Node
	offs   []int
	pool   []expr.Pred
	rows   func(Node) float64
}

func (t *joinTree) collect(n Node, off int) bool {
	switch x := n.(type) {
	case *TableScan, *IndexScan:
		t.leaves, t.offs = append(t.leaves, n), append(t.offs, off)
		return true
	case *Filter:
		t.pool = append(t.pool, expr.ShiftPred(x.Pred, off))
		return t.collect(x.Child, off)
	case *HashJoin:
		lw := x.Left.Schema().Len()
		t.pool = append(t.pool, expr.EQ(expr.Col(off+x.LKey), expr.Col(off+lw+x.RKey)))
		return t.collect(x.Left, off) && t.collect(x.Right, off+lw)
	case *NLJoin:
		t.pool = append(t.pool, expr.ShiftPred(x.Pred, off))
		return t.collect(x.Left, off) && t.collect(x.Right, off+x.Left.Schema().Len())
	}
	return false
}

// step is one candidate extension of the left-deep prefix: leaf i joined to
// it, with the pooled predicates that become checkable there.
type step struct {
	i         int
	node      Node
	m         []int // old → new positions, -1 for leaves not yet placed
	placed    []int // pool indexes
	linked    bool  // joined on an equality
	est, rows float64
	table     string
}

func (s *step) beats(o *step) bool {
	switch {
	case s.linked != o.linked:
		return s.linked
	case s.est != o.est:
		return s.est < o.est
	case s.rows != o.rows:
		return s.rows < o.rows
	case s.table != o.table:
		return s.table < o.table
	}
	return s.i < o.i
}

// reorderTree rebuilds the tree rooted at root, or reports that it cannot.
func reorderTree(root Node, rows func(Node) float64) (Node, []int, bool) {
	t := &joinTree{rows: rows}
	if !t.collect(root, 0) {
		return nil, nil, false
	}
	t.pool = expr.Conjuncts(normFilterPred(expr.AndOf(t.pool...)))
	m := slices.Repeat([]int{-1}, root.Schema().Len())
	used, done := make([]bool, len(t.leaves)), make([]bool, len(t.pool))
	var cur Node
	for range t.leaves {
		var best *step
		for i := range t.leaves {
			if used[i] {
				continue
			}
			if s := t.extend(cur, i, m, done); best == nil || s.beats(best) {
				best = s
			}
		}
		cur, m, used[best.i] = best.node, best.m, true
		for _, k := range best.placed {
			done[k] = true
		}
	}
	var rest []expr.Pred // what touches no column
	for k, p := range t.pool {
		if !done[k] {
			rest = append(rest, p)
		}
	}
	return Normalize(wrapResidual(cur, conjOf(rest))), m, true
}

// extend prices leaf i joined to the prefix cur (nil before the first).
func (t *joinTree) extend(cur Node, i int, m []int, done []bool) *step {
	leaf, off := t.leaves[i], t.offs[i]
	w, base := leaf.Schema().Len(), 0
	if cur != nil {
		base = cur.Schema().Len()
	}
	s := &step{i: i, node: leaf, m: slices.Clone(m), rows: t.rows(leaf)}
	for c := range w {
		s.m[off+c] = base + c
	}
	var on []expr.Pred
	for k, p := range t.pool {
		if placed, touches := reach(p, s.m, off, w); !done[k] && placed && touches {
			on, s.placed = append(on, rebasePred(p, s.m)), append(s.placed, k)
		}
	}
	on = expr.Conjuncts(conjOf(on))
	if cur != nil {
		s.node = NewNLJoin(cur, leaf, expr.True{})
		for k, p := range on {
			if l, r, ok := crossEq(p, base); ok {
				s.node, s.linked, on = NewHashJoin(cur, leaf, l, r-base), true, slices.Delete(on, k, k+1)
				break
			}
		}
	}
	s.node = wrapResidual(s.node, conjOf(on))
	s.est, s.table = t.rows(s.node), Tables(leaf)[0]
	return s
}

// reach reports whether m places every column p reads, and whether p reads
// a column of [off, off+w).
func reach(p expr.Pred, m []int, off, w int) (placed, touches bool) {
	placed = true
	expr.PredRefs(p, func(ix int) {
		placed = placed && m[ix] >= 0
		touches = touches || ix >= off && ix < off+w
	})
	return placed, touches
}

// crossEq reads p as an equality of a prefix column (below base) with a
// column of the leaf joined at base.
func crossEq(p expr.Pred, base int) (l, r int, ok bool) {
	c, isCmp := p.(*expr.Cmp)
	if !isCmp || c.Op != expr.CmpEQ {
		return 0, 0, false
	}
	a, aok := c.L.(*expr.ColRef)
	b, bok := c.R.(*expr.ColRef)
	if !aok || !bok {
		return 0, 0, false
	}
	l, r = min(a.Ix, b.Ix), max(a.Ix, b.Ix)
	return l, r, l < base && r >= base
}
