// Selectivity estimation: textbook System-R style formulas over the
// per-column snapshots. Equality selects 1/NDV, ranges interpolate between
// the observed min/max, conjunctions multiply (independence assumption),
// disjunctions use inclusion-exclusion. Missing statistics fall back to
// fixed magic constants — estimates guide plan choice only, so a bad guess
// costs performance, never correctness.
package stats

import (
	"math"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// Fallback selectivities when no statistics apply (the classic Selinger
// constants).
const (
	DefaultEqSel    = 0.1
	DefaultRangeSel = 1.0 / 3.0
)

// Selectivity estimates the fraction of input rows satisfying p, given
// per-column statistics for the input schema (nil or short slices mean the
// columns are unknown). The result is always in [0, 1].
func Selectivity(p expr.Pred, cols []ColStats) float64 {
	return clamp01(sel(p, cols))
}

func sel(p expr.Pred, cols []ColStats) float64 {
	switch x := p.(type) {
	case expr.True:
		return 1
	case expr.False:
		return 0
	case *expr.And:
		s := 1.0
		for _, q := range x.Ps {
			s *= sel(q, cols)
		}
		return s
	case *expr.Or:
		miss := 1.0
		for _, q := range x.Ps {
			miss *= 1 - clamp01(sel(q, cols))
		}
		return 1 - miss
	case *expr.Not:
		return 1 - clamp01(sel(x.P, cols))
	case *expr.Cmp:
		return cmpSel(x, cols)
	case *expr.In:
		if c, ok := colStatOf(x.E, cols); ok && c.NDV > 0 {
			return float64(len(x.Vals)) / c.NDV
		}
		return DefaultEqSel * float64(len(x.Vals))
	case *expr.Between:
		lo := cmpSel(&expr.Cmp{Op: expr.CmpGE, L: x.E, R: &expr.Const{V: x.Lo}}, cols)
		hi := cmpSel(&expr.Cmp{Op: expr.CmpLE, L: x.E, R: &expr.Const{V: x.Hi}}, cols)
		return lo * hi
	default:
		return DefaultRangeSel
	}
}

// RangeSelectivity estimates the fraction of rows whose column, described
// by c, lies in [lo, hi] (an invalid bound is open): the span of the range
// within the observed [min, max] for numeric columns, never less than one
// distinct value's share, which is also the answer for lo = hi. This is the
// estimate behind index access paths, where the two bounds describe one
// interval — multiplying their selectivities as independent predicates (what
// a conjunction does) would put a narrow mid-domain range near one quarter.
func RangeSelectivity(c ColStats, lo, hi tuple.Value) float64 {
	eq := DefaultEqSel
	if c.Seen && c.NDV > 0 {
		eq = 1 / c.NDV
	}
	switch {
	case !lo.IsValid() && !hi.IsValid():
		return 1
	case lo.IsValid() && hi.IsValid():
		if cmp := tuple.Compare(lo, hi); cmp > 0 {
			return 0
		} else if cmp == 0 {
			return eq
		}
	}
	min, max := c.Min.AsFloat(), c.Max.AsFloat()
	numeric := c.Seen && numericKind(c.Min.K) && max > min &&
		(!lo.IsValid() || numericKind(lo.K)) && (!hi.IsValid() || numericKind(hi.K))
	if !numeric {
		s := DefaultRangeSel
		if lo.IsValid() && hi.IsValid() {
			s *= DefaultRangeSel
		}
		return math.Max(s, eq)
	}
	from, to := 0.0, 1.0
	if lo.IsValid() {
		from = clamp01((lo.AsFloat() - min) / (max - min))
	}
	if hi.IsValid() {
		to = clamp01((hi.AsFloat() - min) / (max - min))
	}
	return clamp01(math.Max(to-from, eq))
}

// colStatOf returns the statistics for e when e is a plain column reference
// with known stats.
func colStatOf(e expr.Expr, cols []ColStats) (ColStats, bool) {
	c, ok := e.(*expr.ColRef)
	if !ok || c.Ix < 0 || c.Ix >= len(cols) || !cols[c.Ix].Seen {
		return ColStats{}, false
	}
	return cols[c.Ix], true
}

func cmpSel(x *expr.Cmp, cols []ColStats) float64 {
	l, lok := colStatOf(x.L, cols)
	r, rok := colStatOf(x.R, cols)
	lc, lConst := x.L.(*expr.Const)
	rc, rConst := x.R.(*expr.Const)

	// Column-vs-column (same input): equality via the larger NDV.
	if lok && rok {
		switch x.Op {
		case expr.CmpEQ:
			n := l.NDV
			if r.NDV > n {
				n = r.NDV
			}
			if n > 0 {
				return 1 / n
			}
			return DefaultEqSel
		case expr.CmpNE:
			return 1 - cmpSel(&expr.Cmp{Op: expr.CmpEQ, L: x.L, R: x.R}, cols)
		default:
			return DefaultRangeSel
		}
	}

	// Orient to column-op-constant (normalization puts the column left, but
	// stay robust to hand-built predicates).
	var cs ColStats
	var v tuple.Value
	op := x.Op
	switch {
	case lok && rConst:
		cs, v = l, rc.V
	case rok && lConst:
		cs, v = r, lc.V
		op = mirrorOp(op)
	default:
		if op == expr.CmpEQ || op == expr.CmpNE {
			s := DefaultEqSel
			if op == expr.CmpNE {
				s = 1 - s
			}
			return s
		}
		return DefaultRangeSel
	}

	switch op {
	case expr.CmpEQ:
		if cs.NDV > 0 {
			return 1 / cs.NDV
		}
		return DefaultEqSel
	case expr.CmpNE:
		if cs.NDV > 0 {
			return 1 - 1/cs.NDV
		}
		return 1 - DefaultEqSel
	}

	// Range comparison: interpolate within [min, max] for ordered kinds.
	if !numericKind(cs.Min.K) || !numericKind(v.K) {
		return DefaultRangeSel
	}
	lo, hi, at := cs.Min.AsFloat(), cs.Max.AsFloat(), v.AsFloat()
	if hi <= lo {
		// Degenerate domain: the column is a single point.
		c := tuple.Compare(cs.Min, v)
		switch op {
		case expr.CmpLT:
			return btof(c < 0)
		case expr.CmpLE:
			return btof(c <= 0)
		case expr.CmpGT:
			return btof(c > 0)
		default:
			return btof(c >= 0)
		}
	}
	frac := clamp01((at - lo) / (hi - lo))
	if op == expr.CmpLT || op == expr.CmpLE {
		return frac
	}
	return 1 - frac
}

func mirrorOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpLT:
		return expr.CmpGT
	case expr.CmpLE:
		return expr.CmpGE
	case expr.CmpGT:
		return expr.CmpLT
	case expr.CmpGE:
		return expr.CmpLE
	default:
		return op
	}
}

func numericKind(k tuple.Kind) bool {
	return k == tuple.KindInt || k == tuple.KindFloat || k == tuple.KindDate
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
