// Plan normalization: the final canonicalization pass before a plan is
// admitted. Predicates and expressions are rewritten into the expr
// package's normal form, chained filters are collapsed, and filters are
// pushed toward the leaves — into scan nodes (where the scan µEngine
// applies them per-consumer without breaking page-stream sharing; in
// table-column terms, re-based through the scan's own projection if it has
// one), through projections of bare columns, and below joins and sorts (not
// below a Top-N). Two semantically equivalent plans
// that converge under these rules render byte-identical Signature() strings,
// which is exactly what the OSP coordinator compares (§4.3) — so
// normalization directly raises sharing hit rates.
//
// Invariants:
//   - input trees are never mutated (builder queries share subtree
//     prefixes); rewritten nodes are shallow copies
//   - output schemas are preserved node-for-node at the root
//   - parallelism/batch hints survive the rewrite but stay excluded from
//     signatures (they change strategy, not results)
//   - idempotent: Normalize(Normalize(p)) == Normalize(p)
package plan

import "qpipe/internal/expr"

// Normalize returns the canonical form of the plan rooted at n. The result
// evaluates to the same rows (up to order already unspecified by the plan)
// and has the same output schema.
func Normalize(n Node) Node {
	switch x := n.(type) {
	case *TableScan:
		cp := *x
		cp.Filter = normFilterPred(x.Filter)
		return &cp
	case *IndexScan:
		cp := *x
		cp.Filter = normFilterPred(x.Filter)
		return &cp
	case *Filter:
		return pushFilter(Normalize(x.Child), expr.NormalizePred(x.Pred))
	case *Project:
		cp := *x
		cp.Child = Normalize(x.Child)
		exprs := make([]expr.Expr, len(x.Exprs))
		for i, e := range x.Exprs {
			exprs[i] = expr.NormalizeExpr(e)
		}
		cp.Exprs = exprs
		return &cp
	case *Sort:
		cp := *x
		cp.Child = Normalize(x.Child)
		return &cp
	case *MergeJoin:
		cp := *x
		cp.Left, cp.Right = Normalize(x.Left), Normalize(x.Right)
		return &cp
	case *HashJoin:
		cp := *x
		cp.Left, cp.Right = Normalize(x.Left), Normalize(x.Right)
		return &cp
	case *NLJoin:
		cp := *x
		cp.Left, cp.Right = Normalize(x.Left), Normalize(x.Right)
		if x.Pred != nil {
			// Single-side conjuncts of the join predicate push into the
			// inputs (same rows: an inner NLJoin filters the cross product,
			// so filtering either input early is equivalent), leaving only
			// genuinely cross-side work at the join.
			left, right, rest := splitJoinPred(expr.NormalizePred(x.Pred), len(cp.Left.Schema().Cols))
			if left != nil {
				cp.Left = pushFilter(cp.Left, left)
			}
			if right != nil {
				cp.Right = pushFilter(cp.Right, right)
			}
			if rest != nil {
				cp.Pred = rest
			} else {
				cp.Pred = expr.True{}
			}
		}
		return &cp
	case *Aggregate:
		cp := *x
		cp.Child = Normalize(x.Child)
		cp.Specs = normSpecs(x.Specs)
		return &cp
	case *GroupBy:
		cp := *x
		cp.Child = Normalize(x.Child)
		cp.Specs = normSpecs(x.Specs)
		return &cp
	default:
		// Update and any future node types pass through untouched.
		return n
	}
}

// normFilterPred canonicalizes a scan-resident predicate; an
// always-true predicate drops to nil (the unfiltered scan form).
func normFilterPred(p expr.Pred) expr.Pred {
	if p == nil {
		return nil
	}
	np := expr.NormalizePred(p)
	if _, ok := np.(expr.True); ok {
		return nil
	}
	return np
}

func normSpecs(specs []expr.AggSpec) []expr.AggSpec {
	out := make([]expr.AggSpec, len(specs))
	copy(out, specs)
	for i := range out {
		if out[i].Arg != nil {
			out[i].Arg = expr.NormalizeExpr(out[i].Arg)
		}
	}
	return out
}

// pushFilter places an already-normalized predicate over an
// already-normalized child, pushing it as far toward the leaves as
// possible. Chained Filter nodes collapse into one conjunction first.
func pushFilter(child Node, pred expr.Pred) Node {
	for {
		f, ok := child.(*Filter)
		if !ok {
			break
		}
		pred = expr.NormalizePred(expr.AndOf(pred, f.Pred))
		child = f.Child
	}
	if _, ok := pred.(expr.True); ok {
		return child
	}

	switch c := child.(type) {
	case *TableScan:
		cp := *c
		cp.Filter = mergeScanFilter(c.Filter, rebasePred(pred, c.Project))
		return &cp
	case *IndexScan:
		cp := *c
		cp.Filter = mergeScanFilter(c.Filter, rebasePred(pred, c.Project))
		return &cp
	case *Project:
		// A projection of bare columns renames and reorders, nothing else:
		// the predicate holds below it on the columns it names.
		if cols := bareCols(c); cols != nil {
			cp := *c
			cp.Child = pushFilter(c.Child, rebasePred(pred, cols))
			return &cp
		}
	case *Sort:
		// Filters commute with sorting (same schema, order preserved) — but
		// not with a Top-N: the first n rows that pass the filter are not
		// the rows of the first n that pass it.
		if c.Limit == 0 {
			cp := *c
			cp.Child = pushFilter(c.Child, pred)
			return &cp
		}
	case *HashJoin:
		left, right, rest := splitJoinPred(pred, len(c.Left.Schema().Cols))
		if left != nil || right != nil {
			cp := *c
			if left != nil {
				cp.Left = pushFilter(c.Left, left)
			}
			if right != nil {
				cp.Right = pushFilter(c.Right, right)
			}
			return wrapResidual(&cp, rest)
		}
	case *MergeJoin:
		left, right, rest := splitJoinPred(pred, len(c.Left.Schema().Cols))
		if left != nil || right != nil {
			cp := *c
			if left != nil {
				cp.Left = pushFilter(c.Left, left)
			}
			if right != nil {
				cp.Right = pushFilter(c.Right, right)
			}
			return wrapResidual(&cp, rest)
		}
	case *NLJoin:
		left, right, rest := splitJoinPred(pred, len(c.Left.Schema().Cols))
		cp := *c
		if left != nil {
			cp.Left = pushFilter(c.Left, left)
		}
		if right != nil {
			cp.Right = pushFilter(c.Right, right)
		}
		if rest != nil {
			// Cross-side conjuncts fold into the join predicate itself.
			if cp.Pred != nil {
				cp.Pred = expr.NormalizePred(expr.AndOf(cp.Pred, rest))
			} else {
				cp.Pred = rest
			}
		}
		return &cp
	}
	return &Filter{Child: child, Pred: pred}
}

// rebasePred rewrites a normalized predicate's column references through m
// (position → position underneath; nil is the identity) and re-normalizes
// it: the canonical operand order follows the column numbers. With a scan's
// Project list as m it brings a predicate over the scan's output to
// table-column terms — the scan µEngine applies Filter before Project.
func rebasePred(p expr.Pred, m []int) expr.Pred {
	if m == nil || p == nil {
		return p
	}
	return expr.NormalizePred(expr.MapPredRefs(p, func(ix int) int { return m[ix] }))
}

// bareCols returns the child column each output of p copies when every
// expression of p is a bare column reference, nil otherwise.
func bareCols(p *Project) []int {
	cols := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		ref, ok := e.(*expr.ColRef)
		if !ok {
			return nil
		}
		cols[i] = ref.Ix
	}
	return cols
}

func mergeScanFilter(existing, pred expr.Pred) expr.Pred {
	if existing == nil {
		return pred
	}
	return normFilterPred(expr.AndOf(existing, pred))
}

func wrapResidual(n Node, rest expr.Pred) Node {
	if rest == nil {
		return n
	}
	return &Filter{Child: n, Pred: rest}
}

// splitJoinPred partitions a conjunction over a join's concatenated output
// into a left-side predicate, a right-side predicate (re-based onto the
// right input's columns), and a residual of cross-side or column-free
// conjuncts. Any of the three may be nil.
func splitJoinPred(pred expr.Pred, leftWidth int) (left, right, rest expr.Pred) {
	var ls, rs, xs []expr.Pred
	for _, c := range expr.Conjuncts(pred) {
		lo, hi, any := refRange(c)
		switch {
		case !any:
			xs = append(xs, c) // column-free (e.g. False): keep above the join
		case hi < leftWidth:
			ls = append(ls, c)
		case lo >= leftWidth:
			rs = append(rs, expr.ShiftPred(c, -leftWidth))
		default:
			xs = append(xs, c)
		}
	}
	return conjOf(ls), conjOf(rs), conjOf(xs)
}

func conjOf(ps []expr.Pred) expr.Pred {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return expr.NormalizePred(expr.AndOf(ps...))
}

// refRange reports the min/max column index referenced by p, and whether it
// references any column at all.
func refRange(p expr.Pred) (lo, hi int, any bool) {
	expr.PredRefs(p, func(ix int) {
		if !any || ix < lo {
			lo = ix
		}
		if !any || ix > hi {
			hi = ix
		}
		any = true
	})
	return lo, hi, any
}
