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
		if c, m := prune(x.Child, cneed); c != x.Child {
			cp := *x
			cp.Child, cp.Pred = c, rebasePred(x.Pred, m)
			return &cp, m
		}
	case *Sort:
		if c, m := prune(x.Child, need.with(x.Keys...)); c != x.Child {
			cp := *x
			cp.Child, cp.Keys = c, rebaseKeys(x.Keys, m)
			return &cp, m
		}
	case *Project:
		cneed := make(colSet, x.Child.Schema().Len())
		for _, e := range x.Exprs {
			expr.ExprRefs(e, cneed.add)
		}
		if c, m := prune(x.Child, cneed); c != x.Child {
			cp := *x
			cp.Child = c
			if m != nil {
				cp.Exprs = make([]expr.Expr, len(x.Exprs))
				for i, e := range x.Exprs {
					cp.Exprs[i] = rebaseExpr(e, m)
				}
				if isIdentity(&cp) {
					return c, nil
				}
			}
			return &cp, nil
		}
	case *Aggregate:
		cneed := make(colSet, x.Child.Schema().Len())
		specRefs(x.Specs, cneed)
		if c, m := prune(x.Child, cneed); c != x.Child {
			cp := *x
			cp.Child, cp.Specs = c, rebaseSpecs(x.Specs, m)
			return &cp, nil
		}
	case *GroupBy:
		cneed := make(colSet, x.Child.Schema().Len()).with(x.Keys...)
		specRefs(x.Specs, cneed)
		if c, m := prune(x.Child, cneed); c != x.Child {
			cp := *x
			cp.Child, cp.Keys, cp.Specs = c, rebaseKeys(x.Keys, m), rebaseSpecs(x.Specs, m)
			return &cp, nil
		}
	case *HashJoin:
		lw := x.Left.Schema().Len()
		if l, r, lm, rm := pruneSides(x.Left, x.Right, need.with(x.LKey, lw+x.RKey)); l != x.Left || r != x.Right {
			cp := *x
			cp.Left, cp.Right, cp.LKey, cp.RKey = l, r, at(lm, x.LKey), at(rm, x.RKey)
			cp.out = l.Schema().Concat(r.Schema())
			return &cp, concatMap(lm, rm, lw, len(need), l.Schema().Len())
		}
	case *MergeJoin:
		lw := x.Left.Schema().Len()
		if l, r, lm, rm := pruneSides(x.Left, x.Right, need.with(x.LKey, lw+x.RKey)); l != x.Left || r != x.Right {
			cp := *x
			cp.Left, cp.Right, cp.LKey, cp.RKey = l, r, at(lm, x.LKey), at(rm, x.RKey)
			cp.out = l.Schema().Concat(r.Schema())
			return &cp, concatMap(lm, rm, lw, len(need), l.Schema().Len())
		}
	case *NLJoin:
		jneed := need.with()
		expr.PredRefs(x.Pred, jneed.add)
		if l, r, lm, rm := pruneSides(x.Left, x.Right, jneed); l != x.Left || r != x.Right {
			m := concatMap(lm, rm, x.Left.Schema().Len(), len(need), l.Schema().Len())
			cp := *x
			cp.Left, cp.Right, cp.Pred = l, r, rebasePred(x.Pred, m)
			cp.out = l.Schema().Concat(r.Schema())
			return &cp, m
		}
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

// pruneSides prunes a join's inputs with the join's need set split at the
// left input's width.
func pruneSides(left, right Node, need colSet) (l, r Node, lm, rm []int) {
	lw := left.Schema().Len()
	l, lm = prune(left, need[:lw])
	r, rm = prune(right, need[lw:])
	return l, r, lm, rm
}

// concatMap is the position map of a join's output (width columns, the
// first lw from the left input) given its inputs' maps and the left input's
// new width.
func concatMap(lm, rm []int, lw, width, newLW int) []int {
	if lm == nil && rm == nil {
		return nil
	}
	m := make([]int, width)
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
