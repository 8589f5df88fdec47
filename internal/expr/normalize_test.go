package expr

import (
	"testing"

	"qpipe/internal/tuple"
)

func sig(p Pred) string { return NormalizePred(p).Signature() }

func TestNormalizeCmpOrientation(t *testing.T) {
	// 5 < x  ⇒  x > 5 : column refs sort before constants.
	a := NormalizePred(LT(CInt(5), Col(0)))
	b := NormalizePred(GT(Col(0), CInt(5)))
	if a.Signature() != b.Signature() {
		t.Fatalf("commuted comparisons differ: %q vs %q", a.Signature(), b.Signature())
	}
	if a.Signature() != "(c0>k1:5)" {
		t.Fatalf("unexpected canonical form %q", a.Signature())
	}
}

func TestNormalizeConjunctOrder(t *testing.T) {
	p1 := AndOf(EQ(Col(0), CInt(1)), EQ(Col(1), CInt(2)))
	p2 := AndOf(EQ(CInt(2), Col(1)), EQ(Col(0), CInt(1)))
	if sig(p1) != sig(p2) {
		t.Fatalf("reordered conjunctions differ: %q vs %q", sig(p1), sig(p2))
	}
}

func TestNormalizeConstantFolding(t *testing.T) {
	if _, ok := NormalizePred(EQ(CInt(1), CInt(1))).(True); !ok {
		t.Fatal("1=1 should fold to True")
	}
	if _, ok := NormalizePred(EQ(CInt(1), CInt(2))).(False); !ok {
		t.Fatal("1=2 should fold to False")
	}
	// AND absorbs False, drops True.
	if _, ok := NormalizePred(AndOf(EQ(Col(0), CInt(1)), LT(CInt(2), CInt(1)))).(False); !ok {
		t.Fatal("AND with a false conjunct should fold to False")
	}
	got := NormalizePred(AndOf(EQ(Col(0), CInt(1)), LE(CInt(1), CInt(2))))
	if got.Signature() != "(c0=k1:1)" {
		t.Fatalf("AND with a true conjunct should unwrap, got %q", got.Signature())
	}
	// Arithmetic folding inside an expression.
	e := NormalizeExpr(Add(CInt(2), CInt(3)))
	c, ok := e.(*Const)
	if !ok || c.V.I != 5 {
		t.Fatalf("2+3 should fold to 5, got %v", e.Signature())
	}
}

func TestNormalizeCommutativeArith(t *testing.T) {
	a := NormalizeExpr(Mul(CFloat(1.1), Col(3)))
	b := NormalizeExpr(Mul(Col(3), CFloat(1.1)))
	if a.Signature() != b.Signature() {
		t.Fatalf("commuted products differ: %q vs %q", a.Signature(), b.Signature())
	}
	// Subtraction must NOT commute.
	s1 := NormalizeExpr(Sub(Col(0), Col(1))).Signature()
	s2 := NormalizeExpr(Sub(Col(1), Col(0))).Signature()
	if s1 == s2 {
		t.Fatal("subtraction operands must not be reordered")
	}
}

func TestNormalizeNot(t *testing.T) {
	// NOT (x < 5)  ⇒  x >= 5
	a := NormalizePred(NotOf(LT(Col(0), CInt(5))))
	b := NormalizePred(GE(Col(0), CInt(5)))
	if a.Signature() != b.Signature() {
		t.Fatalf("negated comparison differs: %q vs %q", a.Signature(), b.Signature())
	}
	// Double negation.
	c := NormalizePred(NotOf(NotOf(InOf(Col(0), tuple.I64(1)))))
	d := NormalizePred(InOf(Col(0), tuple.I64(1)))
	if c.Signature() != d.Signature() {
		t.Fatalf("double negation differs: %q vs %q", c.Signature(), d.Signature())
	}
}

func TestNormalizeIn(t *testing.T) {
	a := sig(InOf(Col(0), tuple.I64(3), tuple.I64(1), tuple.I64(3), tuple.I64(2)))
	b := sig(InOf(Col(0), tuple.I64(1), tuple.I64(2), tuple.I64(3)))
	if a != b {
		t.Fatalf("IN lists differ after sort+dedup: %q vs %q", a, b)
	}
	// Singleton folds to equality.
	if sig(InOf(Col(0), tuple.I64(7))) != sig(EQ(Col(0), CInt(7))) {
		t.Fatal("singleton IN should fold to equality")
	}
	if _, ok := NormalizePred(InOf(Col(0))).(False); !ok {
		t.Fatal("empty IN should fold to False")
	}
}

func TestNormalizeBetween(t *testing.T) {
	a := sig(BetweenOf(Col(2), tuple.I64(100), tuple.I64(800)))
	b := sig(AndOf(GE(Col(2), CInt(100)), LE(Col(2), CInt(800))))
	if a != b {
		t.Fatalf("BETWEEN and >=/<= pair differ: %q vs %q", a, b)
	}
}

func TestNormalizePreservesSemantics(t *testing.T) {
	rows := []tuple.Tuple{
		{tuple.I64(1), tuple.F64(10), tuple.Str("a")},
		{tuple.I64(5), tuple.F64(500), tuple.Str("b")},
		{tuple.I64(9), tuple.F64(900), tuple.Str("a")},
	}
	preds := []Pred{
		AndOf(LT(CInt(0), Col(0)), OrOf(EQ(Col(2), CStr("a")), GT(Col(1), CFloat(450)))),
		NotOf(BetweenOf(Col(1), tuple.F64(100), tuple.F64(600))),
		InOf(Col(0), tuple.I64(5), tuple.I64(9), tuple.I64(5)),
		OrOf(EQ(CInt(1), CInt(2)), NE(Col(0), CInt(5))),
	}
	for pi, p := range preds {
		n := NormalizePred(p)
		for ri, r := range rows {
			if p.Test(r) != n.Test(r) {
				t.Fatalf("pred %d row %d: normalization changed semantics (%s vs %s)",
					pi, ri, p.Signature(), n.Signature())
			}
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	p := AndOf(
		BetweenOf(Col(1), tuple.I64(1), tuple.I64(9)),
		OrOf(LT(CInt(3), Col(0)), EQ(Col(2), CStr("x"))),
		NotOf(GE(Col(0), CInt(7))),
	)
	once := NormalizePred(p)
	twice := NormalizePred(once)
	if once.Signature() != twice.Signature() {
		t.Fatalf("normalization not idempotent: %q vs %q", once.Signature(), twice.Signature())
	}
}

func TestShiftPred(t *testing.T) {
	p := AndOf(GT(Col(2), CInt(5)), InOf(Col(3), tuple.I64(1)))
	s := ShiftPred(p, -2)
	want := sig(AndOf(GT(Col(0), CInt(5)), InOf(Col(1), tuple.I64(1))))
	if sig(s) != want {
		t.Fatalf("shift mismatch: %q vs %q", sig(s), want)
	}
	// Original untouched.
	if p.Ps[0].(*Cmp).L.(*ColRef).Ix != 2 {
		t.Fatal("ShiftPred mutated its input")
	}
}

// MapPredRefs reaches every column reference, whatever it hangs under, and
// leaves its input alone.
func TestMapPredRefs(t *testing.T) {
	p := AndOf(
		OrOf(GT(Col(4), CInt(5)), NotOf(EQ(Add(Col(0), Col(2)), CInt(7)))),
		InOf(Col(2), tuple.I64(1), tuple.I64(3)),
		BetweenOf(CondOf(LT(Col(0), Col(4)), Col(2), CInt(0)), tuple.I64(1), tuple.I64(9)),
	)
	before := sig(p)
	m := map[int]int{0: 3, 2: 0, 4: 1}
	got := MapPredRefs(p, func(ix int) int { return m[ix] })
	want := sig(AndOf(
		OrOf(GT(Col(1), CInt(5)), NotOf(EQ(Add(Col(3), Col(0)), CInt(7)))),
		InOf(Col(0), tuple.I64(1), tuple.I64(3)),
		BetweenOf(CondOf(LT(Col(3), Col(1)), Col(0), CInt(0)), tuple.I64(1), tuple.I64(9)),
	))
	if sig(got) != want {
		t.Fatalf("mapped: %q\nwant:   %q", sig(got), want)
	}
	if sig(p) != before {
		t.Fatal("MapPredRefs mutated its input")
	}
}
