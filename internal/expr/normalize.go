// Expression canonicalization: rewrites expressions and predicates into a
// normal form so semantically equivalent queries render identical
// Signature() strings. This is what makes OSP sharing an optimizer
// objective — `WHERE a=1 AND b=2` and `WHERE b=2 AND a=1` must hash to the
// same plan signature before the coordinator can ever match them (paper
// §4.3). The rules are purely structural and semantics-preserving:
//
//   - constant folding (both operands constant → evaluate now; Compare is a
//     total preorder over tuple.Value, so folding never traps)
//   - commutative operand ordering for + and * (smaller signature first)
//   - comparison orientation (smaller signature left, operator mirrored),
//     which puts column refs ("c…") before constants ("k…")
//   - conjunct/disjunct flattening, signature-sorting, de-duplication and
//     unit/absorbing-element elimination
//   - NOT pushed through comparisons; double negation dropped
//   - IN lists sorted and de-duplicated; singleton IN → equality
//   - BETWEEN expanded to a >=/<= conjunction so range predicates written
//     either way converge
package expr

import (
	"sort"

	"qpipe/internal/tuple"
)

// False is a predicate that never holds: the absorbing element for AND and
// the unit for OR, produced by constant folding (e.g. WHERE 1 = 2).
type False struct{}

// Test implements Pred.
func (False) Test(tuple.Tuple) bool { return false }

// Signature implements Pred.
func (False) Signature() string { return "false" }

// NormalizeExpr rewrites e into canonical form. The result is a new tree —
// e is never mutated — and evaluates identically on every tuple.
func NormalizeExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Arith:
		l, r := NormalizeExpr(x.L), NormalizeExpr(x.R)
		if isConst(l) && isConst(r) {
			return &Const{V: (&Arith{Op: x.Op, L: l, R: r}).Eval(nil)}
		}
		if (x.Op == OpAdd || x.Op == OpMul) && l.Signature() > r.Signature() {
			l, r = r, l
		}
		return &Arith{Op: x.Op, L: l, R: r}
	case *Cond:
		p := NormalizePred(x.If)
		then, els := NormalizeExpr(x.Then), NormalizeExpr(x.Else)
		switch p.(type) {
		case True:
			return then
		case False:
			return els
		}
		return &Cond{If: p, Then: then, Else: els}
	default:
		// ColRef and Const are already canonical.
		return e
	}
}

// NormalizePred rewrites p into canonical form; like NormalizeExpr it never
// mutates its input and preserves Test() on every tuple.
func NormalizePred(p Pred) Pred {
	switch x := p.(type) {
	case *Cmp:
		return normalizeCmp(x)
	case *And:
		return normalizeNary(x.Ps, true)
	case *Or:
		return normalizeNary(x.Ps, false)
	case *Not:
		return normalizeNot(x)
	case *In:
		return normalizeIn(x)
	case *Between:
		// Expand to a conjunction so `x BETWEEN a AND b` and
		// `x >= a AND x <= b` converge on one signature.
		e := NormalizeExpr(x.E)
		loOp, hiOp := CmpGE, CmpLE
		if x.LoX {
			loOp = CmpGT
		}
		if x.HiX {
			hiOp = CmpLT
		}
		return NormalizePred(AndOf(
			&Cmp{Op: loOp, L: e, R: &Const{V: x.Lo}},
			&Cmp{Op: hiOp, L: e, R: &Const{V: x.Hi}},
		))
	default:
		// True and False are already canonical.
		return p
	}
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// mirror returns the operator with its operands swapped: a < b ⇔ b > a.
func mirror(op CmpOp) CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default: // = and <> are symmetric
		return op
	}
}

// negate returns the complement operator: NOT (a < b) ⇔ a >= b. Safe
// because tuple.Compare is a total preorder (no NULL/NaN trichotomy gaps).
func negate(op CmpOp) CmpOp {
	switch op {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	default:
		return CmpLT
	}
}

func normalizeCmp(x *Cmp) Pred {
	l, r := NormalizeExpr(x.L), NormalizeExpr(x.R)
	op := x.Op
	if isConst(l) && isConst(r) {
		if (&Cmp{Op: op, L: l, R: r}).Test(nil) {
			return True{}
		}
		return False{}
	}
	ls, rs := l.Signature(), r.Signature()
	if ls == rs {
		// x = x, x <= x, x >= x always hold; x <> x, x < x, x > x never do.
		switch op {
		case CmpEQ, CmpLE, CmpGE:
			return True{}
		default:
			return False{}
		}
	}
	if ls > rs {
		l, r = r, l
		op = mirror(op)
	}
	return &Cmp{Op: op, L: l, R: r}
}

// normalizeNary canonicalizes a conjunction (conj=true) or disjunction:
// children normalized, same-connective children flattened in, units
// dropped, absorbing elements short-circuited, then sorted by signature and
// de-duplicated. Singleton lists unwrap; empty lists fold to the unit.
func normalizeNary(ps []Pred, conj bool) Pred {
	var flat []Pred
	var add func(p Pred)
	add = func(p Pred) {
		switch q := p.(type) {
		case *And:
			if conj {
				for _, c := range q.Ps {
					add(c)
				}
				return
			}
		case *Or:
			if !conj {
				for _, c := range q.Ps {
					add(c)
				}
				return
			}
		}
		flat = append(flat, p)
	}
	for _, p := range ps {
		add(NormalizePred(p))
	}

	kept := flat[:0]
	for _, p := range flat {
		switch p.(type) {
		case True:
			if conj {
				continue // unit of AND
			}
			return True{} // absorbing element of OR
		case False:
			if conj {
				return False{} // absorbing element of AND
			}
			continue // unit of OR
		}
		kept = append(kept, p)
	}

	// Each operand's signature is rendered once, as the key it sorts on.
	type keyed struct {
		p   Pred
		sig string
	}
	ks := make([]keyed, len(kept))
	for i, p := range kept {
		ks[i] = keyed{p, p.Signature()}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].sig < ks[j].sig })
	out := make([]Pred, 0, len(ks))
	for i, k := range ks {
		if i == 0 || k.sig != ks[i-1].sig {
			out = append(out, k.p)
		}
	}

	switch len(out) {
	case 0:
		if conj {
			return True{}
		}
		return False{}
	case 1:
		return out[0]
	}
	if conj {
		return &And{Ps: out}
	}
	return &Or{Ps: out}
}

func normalizeNot(x *Not) Pred {
	inner := NormalizePred(x.P)
	switch q := inner.(type) {
	case True:
		return False{}
	case False:
		return True{}
	case *Not:
		return q.P // inner is normalized already
	case *Cmp:
		return normalizeCmp(&Cmp{Op: negate(q.Op), L: q.L, R: q.R})
	}
	return &Not{P: inner}
}

func normalizeIn(x *In) Pred {
	e := NormalizeExpr(x.E)
	vals := make([]tuple.Value, len(x.Vals))
	copy(vals, x.Vals)
	sort.SliceStable(vals, func(i, j int) bool {
		c := tuple.Compare(vals[i], vals[j])
		if c != 0 {
			return c < 0
		}
		return vals[i].String() < vals[j].String()
	})
	// De-duplicate under tuple.Equal: In's Test uses the same relation, so
	// dropping Compare-equal values (e.g. 1 and 1.0) preserves semantics.
	dedup := vals[:0]
	for i, v := range vals {
		if i > 0 && tuple.Equal(v, vals[i-1]) {
			continue
		}
		dedup = append(dedup, v)
	}
	switch len(dedup) {
	case 0:
		return False{}
	case 1:
		return normalizeCmp(&Cmp{Op: CmpEQ, L: e, R: &Const{V: dedup[0]}})
	}
	return &In{E: e, Vals: dedup}
}

// MapExprRefs rebuilds e with every column reference's index replaced by
// m(index): the one walk behind every re-basing of an expression onto
// another input (a predicate moving below a join or a projection, a plan
// whose scans stopped producing some columns). The input is not mutated.
func MapExprRefs(e Expr, m func(ix int) int) Expr {
	switch x := e.(type) {
	case *ColRef:
		return &ColRef{Ix: m(x.Ix), Name: x.Name}
	case *Arith:
		return &Arith{Op: x.Op, L: MapExprRefs(x.L, m), R: MapExprRefs(x.R, m)}
	case *Cond:
		return &Cond{If: MapPredRefs(x.If, m), Then: MapExprRefs(x.Then, m), Else: MapExprRefs(x.Else, m)}
	default:
		return e
	}
}

// MapPredRefs is MapExprRefs for predicates.
func MapPredRefs(p Pred, m func(ix int) int) Pred {
	switch x := p.(type) {
	case *Cmp:
		return &Cmp{Op: x.Op, L: MapExprRefs(x.L, m), R: MapExprRefs(x.R, m)}
	case *And:
		ps := make([]Pred, len(x.Ps))
		for i, q := range x.Ps {
			ps[i] = MapPredRefs(q, m)
		}
		return &And{Ps: ps}
	case *Or:
		ps := make([]Pred, len(x.Ps))
		for i, q := range x.Ps {
			ps[i] = MapPredRefs(q, m)
		}
		return &Or{Ps: ps}
	case *Not:
		return &Not{P: MapPredRefs(x.P, m)}
	case *In:
		return &In{E: MapExprRefs(x.E, m), Vals: x.Vals}
	case *Between:
		return &Between{E: MapExprRefs(x.E, m), Lo: x.Lo, Hi: x.Hi, LoX: x.LoX, HiX: x.HiX}
	default:
		return p
	}
}

// ShiftExpr rebuilds e with every column reference offset by delta.
func ShiftExpr(e Expr, delta int) Expr {
	return MapExprRefs(e, func(ix int) int { return ix + delta })
}

// ShiftPred is ShiftExpr for predicates; the plan normalizer re-bases a
// predicate onto a join's right input with it.
func ShiftPred(p Pred, delta int) Pred {
	return MapPredRefs(p, func(ix int) int { return ix + delta })
}
