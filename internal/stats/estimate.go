// Cardinality estimation over physical plans: the Estimator walks a plan
// tree bottom-up propagating (row count, per-output-column stats) through
// each operator, so EXPLAIN can annotate every node with rows≈N and the
// planner can compare candidate join orders by estimated build-side size.
package stats

import (
	"math"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
)

// DefaultTableRows is the row-count guess for tables with no statistics.
const DefaultTableRows = 1000

// Estimator computes per-node cardinality estimates for a plan. Estimates
// are memoized per node, so annotating a whole tree is linear. Not safe for
// concurrent use; build one per EXPLAIN/plan step.
type Estimator struct {
	lookup func(table string) *TableStats
	memo   map[plan.Node]nodeEst
}

type nodeEst struct {
	rows float64
	cols []ColStats // per output column; Seen=false means unknown
}

// NewEstimator builds an estimator over a table-statistics source. lookup
// may return nil for unknown tables.
func NewEstimator(lookup func(table string) *TableStats) *Estimator {
	return &Estimator{lookup: lookup, memo: make(map[plan.Node]nodeEst)}
}

// Rows returns the estimated output cardinality of n, rounded: what EXPLAIN
// prints.
func (e *Estimator) Rows(n plan.Node) int64 {
	r := math.Round(e.Estimate(n))
	if r < 0 || math.IsNaN(r) {
		r = 0
	}
	return int64(r)
}

// Estimate returns the estimated output cardinality of n, unrounded: what
// plan.ReorderJoins prices join orders by.
func (e *Estimator) Estimate(n plan.Node) float64 { return e.est(n).rows }

func (e *Estimator) est(n plan.Node) nodeEst {
	if v, ok := e.memo[n]; ok {
		return v
	}
	v := e.compute(n)
	e.memo[n] = v
	return v
}

func (e *Estimator) compute(n plan.Node) nodeEst {
	switch x := n.(type) {
	case *plan.TableScan:
		est := e.baseTable(x.Table, x.TableSchema.Len())
		if x.Filter != nil {
			est.rows *= Selectivity(x.Filter, est.cols)
		}
		est.cols = projectCols(est.cols, x.Project)
		return capNDV(est)

	case *plan.IndexScan:
		est := e.baseTable(x.Table, x.TableSchema.Len())
		ix := x.TableSchema.ColIndex(x.Col)
		if ix >= 0 {
			est.rows *= RangeSelectivity(est.cols[ix], x.Lo, x.Hi)
		}
		// The residual filter of a planner-chosen index scan still holds the
		// comparisons its range was built from; the range has counted them.
		for _, c := range expr.Conjuncts(x.Filter) {
			if col, op, _, ok := expr.ColConst(c); ok && col == ix && op != expr.CmpNE {
				continue
			}
			est.rows *= Selectivity(c, est.cols)
		}
		est.cols = projectCols(est.cols, x.Project)
		return capNDV(est)

	case *plan.Filter:
		child := e.est(x.Child)
		return capNDV(nodeEst{rows: child.rows * Selectivity(x.Pred, child.cols), cols: child.cols})

	case *plan.Project:
		child := e.est(x.Child)
		cols := make([]ColStats, len(x.Exprs))
		for i, ex := range x.Exprs {
			if c, ok := colStatOf(ex, child.cols); ok {
				cols[i] = c
			}
		}
		return nodeEst{rows: child.rows, cols: cols}

	case *plan.Sort:
		est := e.est(x.Child)
		if x.Limit > 0 && est.rows > float64(x.Limit) {
			est.rows = float64(x.Limit)
			return capNDV(est)
		}
		return est

	case *plan.HashJoin:
		return e.equiJoin(x.Left, x.Right, x.LKey, x.RKey)

	case *plan.MergeJoin:
		return e.equiJoin(x.Left, x.Right, x.LKey, x.RKey)

	case *plan.NLJoin:
		l, r := e.est(x.Left), e.est(x.Right)
		cols := append(append([]ColStats{}, l.cols...), r.cols...)
		rows := l.rows * r.rows
		if x.Pred != nil {
			rows *= Selectivity(x.Pred, cols)
		}
		return capNDV(nodeEst{rows: rows, cols: cols})

	case *plan.Aggregate:
		return nodeEst{rows: 1, cols: make([]ColStats, len(x.Specs))}

	case *plan.GroupBy:
		child := e.est(x.Child)
		groups := 1.0
		for _, k := range x.Keys {
			if k >= 0 && k < len(child.cols) && child.cols[k].Seen && child.cols[k].NDV > 0 {
				groups *= child.cols[k].NDV
			} else {
				groups = child.rows
				break
			}
		}
		if groups > child.rows {
			groups = child.rows
		}
		cols := make([]ColStats, len(x.Keys)+len(x.Specs))
		for i, k := range x.Keys {
			if k >= 0 && k < len(child.cols) {
				cols[i] = child.cols[k]
			}
		}
		return capNDV(nodeEst{rows: groups, cols: cols})

	case *plan.Update:
		return nodeEst{rows: float64(len(x.Rows))}

	default:
		if ch := n.Children(); len(ch) > 0 {
			return e.est(ch[0])
		}
		return nodeEst{}
	}
}

func (e *Estimator) baseTable(table string, ncols int) nodeEst {
	if ts := e.lookup(table); ts != nil {
		cols := make([]ColStats, ncols)
		copy(cols, ts.Cols)
		return nodeEst{rows: float64(ts.Rows), cols: cols}
	}
	return nodeEst{rows: DefaultTableRows, cols: make([]ColStats, ncols)}
}

// equiJoin estimates |L ⋈ R| = |L|·|R| / max(ndv(Lkey), ndv(Rkey)), the
// standard containment-of-values formula; unknown key NDVs fall back to the
// larger input cardinality.
func (e *Estimator) equiJoin(left, right plan.Node, lkey, rkey int) nodeEst {
	l, r := e.est(left), e.est(right)
	ndvL := keyNDV(l, lkey)
	ndvR := keyNDV(r, rkey)
	denom := math.Max(math.Max(ndvL, ndvR), 1)
	cols := append(append([]ColStats{}, l.cols...), r.cols...)
	return capNDV(nodeEst{rows: l.rows * r.rows / denom, cols: cols})
}

func keyNDV(est nodeEst, key int) float64 {
	if key >= 0 && key < len(est.cols) && est.cols[key].Seen && est.cols[key].NDV > 0 {
		ndv := est.cols[key].NDV
		if ndv > est.rows && est.rows >= 1 {
			ndv = est.rows
		}
		return ndv
	}
	return est.rows
}

func projectCols(cols []ColStats, project []int) []ColStats {
	if project == nil {
		return cols
	}
	out := make([]ColStats, len(project))
	for i, ix := range project {
		if ix >= 0 && ix < len(cols) {
			out[i] = cols[ix]
		}
	}
	return out
}

// capNDV bounds every column's NDV by the (post-filter) row count: a
// predicate that keeps k rows cannot leave more than k distinct values.
func capNDV(est nodeEst) nodeEst {
	limit := math.Max(est.rows, 1)
	changed := false
	for _, c := range est.cols {
		if c.Seen && c.NDV > limit {
			changed = true
			break
		}
	}
	if !changed {
		return est
	}
	cols := append([]ColStats{}, est.cols...)
	for i := range cols {
		if cols[i].Seen && cols[i].NDV > limit {
			cols[i].NDV = limit
		}
	}
	return nodeEst{rows: est.rows, cols: cols}
}
