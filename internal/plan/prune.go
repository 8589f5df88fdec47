// Column pruning: the pass that makes every scan of a normalized plan
// produce only the columns the plan reads. It walks down from the root with
// the set of output columns each node's parent reads — the root's parent, the
// client, reads all of them — and each operator adds what it reads itself:
// predicate and expression columns, sort, group and join keys, aggregate
// arguments. At a leaf the set becomes the scan's Project list, ascending in
// table order whatever order the query named the columns in, so statements
// that read the same columns of a table get one scan signature; nil stays
// nil when every column is read, and the list is empty (not nil) when none
// is, as under a lone count(*). Coming back up, every column reference above
// a narrowed scan is re-based through the old→new position map and
// re-normalized, so Normalize is a fixed point of the result.
//
// A Project of bare column references that pruning has turned into the
// identity on its child — same columns, same order, same names and kinds —
// is dropped: the scan already produces its output.
//
// Like the other passes it never mutates its input (rewritten nodes are
// shallow copies, untouched subtrees are shared) and preserves the root
// schema. It runs after Normalize, because the scan µEngine applies Filter
// before Project and so filters must already sit inside the scans, in
// table-column terms, where pruning cannot take a column from under them;
// and before ChooseAccessPaths, which carries a scan's Project onto the
// IndexScan it builds.
package plan

import (
	"slices"

	"qpipe/internal/expr"
)

// PruneColumns returns the plan with each scan projecting the columns the
// plan above it reads.
func PruneColumns(n Node) Node {
	need := make(colSet, n.Schema().Len())
	for i := range need {
		need[i] = true
	}
	out, _ := prune(n, need)
	return out
}

// colSet marks, by position, the output columns of a node that are read.
// A node treats the set its parent hands it as read-only.
type colSet []bool

// with returns a copy of s that also holds cols.
func (s colSet) with(cols ...int) colSet {
	out := slices.Clone(s)
	for _, c := range cols {
		out[c] = true
	}
	return out
}

func (s colSet) add(ix int) { s[ix] = true }

// at reads an old→new position map; nil is the identity.
func at(m []int, ix int) int {
	if m == nil {
		return ix
	}
	return m[ix]
}

func rebaseKeys(keys []int, m []int) []int {
	if m == nil {
		return keys
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func rebaseExpr(e expr.Expr, m []int) expr.Expr {
	if m == nil || e == nil {
		return e
	}
	return expr.NormalizeExpr(expr.MapExprRefs(e, func(ix int) int { return m[ix] }))
}

func rebaseSpecs(specs []expr.AggSpec, m []int) []expr.AggSpec {
	if m == nil {
		return specs
	}
	out := slices.Clone(specs)
	for i := range out {
		out[i].Arg = rebaseExpr(out[i].Arg, m)
	}
	return out
}

// specRefs adds the columns the aggregate arguments read to need.
func specRefs(specs []expr.AggSpec, need colSet) {
	for _, s := range specs {
		if s.Arg != nil {
			expr.ExprRefs(s.Arg, need.add)
		}
	}
}

// prune returns n producing at least the columns of need, and the map from
// n's old output positions to the new ones (-1 for a column no longer
// produced; nil when the positions did not change). Kept columns keep their
// relative order.
func prune(n Node, need colSet) (Node, []int) {
	switch x := n.(type) {
	case *TableScan:
		if cols, m := scanCols(x.Project, need); m != nil {
			cp := *x
			cp.Project, cp.out = cols, x.TableSchema.Project(cols)
			return &cp, m
		}
	case *IndexScan:
		if cols, m := scanCols(x.Project, need); m != nil {
			cp := *x
			cp.Project, cp.out = cols, x.TableSchema.Project(cols)
			return &cp, m
		}
	case *Filter:
		cneed := need.with()
		expr.PredRefs(x.Pred, cneed.add)
		return pruneOne(x, cneed)
	case *Sort:
		return pruneOne(x, need.with(x.Keys...))
	case *Project:
		cneed := make(colSet, x.Child.Schema().Len())
		for _, e := range x.Exprs {
			expr.ExprRefs(e, cneed.add)
		}
		if c, m := prune(x.Child, cneed); c != x.Child {
			cp, _ := rebase(x, []Node{c}, [][]int{m})
			if m != nil && isIdentity(cp.(*Project)) {
				return c, nil
			}
			return cp, nil
		}
	case *Aggregate:
		cneed := make(colSet, x.Child.Schema().Len())
		specRefs(x.Specs, cneed)
		return pruneOne(x, cneed)
	case *GroupBy:
		cneed := make(colSet, x.Child.Schema().Len()).with(x.Keys...)
		specRefs(x.Specs, cneed)
		return pruneOne(x, cneed)
	case *HashJoin:
		return pruneSides(x, need.with(x.LKey, x.Left.Schema().Len()+x.RKey))
	case *MergeJoin:
		return pruneSides(x, need.with(x.LKey, x.Left.Schema().Len()+x.RKey))
	case *NLJoin:
		jneed := need.with()
		expr.PredRefs(x.Pred, jneed.add)
		return pruneSides(x, jneed)
	}
	return n, nil
}

// pruneOne prunes a unary node's input to cneed and re-bases the node.
func pruneOne(n Node, cneed colSet) (Node, []int) {
	child := n.Children()[0]
	if c, m := prune(child, cneed); c != child {
		return rebase(n, []Node{c}, [][]int{m})
	}
	return n, nil
}

// pruneSides prunes a join's inputs with the join's need set split at the
// left input's width, and re-bases the join.
func pruneSides(j Node, need colSet) (Node, []int) {
	left, right := j.Children()[0], j.Children()[1]
	lw := left.Schema().Len()
	l, lm := prune(left, need[:lw])
	r, rm := prune(right, need[lw:])
	if l == left && r == right {
		return j, nil
	}
	return rebase(j, []Node{l, r}, [][]int{lm, rm})
}

// rebase returns n over new inputs, with every column reference n makes
// re-based through its input's old→new position map (nil: that input's
// positions did not change), and the position map of n's own output: the
// input's through a Filter or a Sort, both inputs' through a join, nil
// where n computes its columns itself. PruneColumns and ReorderJoins change
// the inputs; this is what both do to the nodes above.
func rebase(n Node, kids []Node, maps [][]int) (Node, []int) {
	switch x := n.(type) {
	case *Filter:
		cp := *x
		cp.Child, cp.Pred = kids[0], rebasePred(x.Pred, maps[0])
		return &cp, maps[0]
	case *Sort:
		cp := *x
		cp.Child, cp.Keys = kids[0], rebaseKeys(x.Keys, maps[0])
		return &cp, maps[0]
	case *Project:
		cp := *x
		cp.Child, cp.Exprs = kids[0], make([]expr.Expr, len(x.Exprs))
		for i, e := range x.Exprs {
			cp.Exprs[i] = rebaseExpr(e, maps[0])
		}
		return &cp, nil
	case *Aggregate:
		cp := *x
		cp.Child, cp.Specs = kids[0], rebaseSpecs(x.Specs, maps[0])
		return &cp, nil
	case *GroupBy:
		cp := *x
		cp.Child, cp.Keys, cp.Specs = kids[0], rebaseKeys(x.Keys, maps[0]), rebaseSpecs(x.Specs, maps[0])
		return &cp, nil
	case *HashJoin:
		cp := *x
		cp.Left, cp.Right, cp.LKey, cp.RKey = kids[0], kids[1], at(maps[0], x.LKey), at(maps[1], x.RKey)
		cp.out = kids[0].Schema().Concat(kids[1].Schema())
		return &cp, concatMap(x, kids, maps)
	case *MergeJoin:
		cp := *x
		cp.Left, cp.Right, cp.LKey, cp.RKey = kids[0], kids[1], at(maps[0], x.LKey), at(maps[1], x.RKey)
		cp.out = kids[0].Schema().Concat(kids[1].Schema())
		return &cp, concatMap(x, kids, maps)
	case *NLJoin:
		m := concatMap(x, kids, maps)
		cp := *x
		cp.Left, cp.Right, cp.Pred = kids[0], kids[1], rebasePred(x.Pred, m)
		cp.out = kids[0].Schema().Concat(kids[1].Schema())
		return &cp, m
	}
	return n, nil
}

// scanCols narrows a scan's projection (nil = every table column) to the
// output positions of need: the new Project list and the position map, or
// nil, nil when every output column is read.
func scanCols(project []int, need colSet) (cols, m []int) {
	if !slices.Contains(need, false) {
		return nil, nil
	}
	cols, m = []int{}, make([]int, len(need))
	for i, keep := range need {
		m[i] = -1
		if keep {
			m[i] = len(cols)
			cols = append(cols, at(project, i))
		}
	}
	return cols, m
}

// concatMap is the position map of join j's output given its new inputs
// and their maps.
func concatMap(j Node, kids []Node, maps [][]int) []int {
	lm, rm := maps[0], maps[1]
	if lm == nil && rm == nil {
		return nil
	}
	lw, newLW := j.Children()[0].Schema().Len(), kids[0].Schema().Len()
	m := make([]int, j.Schema().Len())
	for i := range m {
		switch {
		case i < lw:
			m[i] = at(lm, i)
		case at(rm, i-lw) < 0:
			m[i] = -1
		default:
			m[i] = newLW + at(rm, i-lw)
		}
	}
	return m
}

// isIdentity reports whether p copies its child's columns one for one under
// the child's own names and kinds.
func isIdentity(p *Project) bool {
	cols := bareCols(p)
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return cols != nil && slices.Equal(p.out.Cols, p.Child.Schema().Cols)
}
