// Package expr provides the scalar-expression and predicate language used
// by plan nodes: column references, constants, arithmetic, comparisons and
// boolean connectives. Expressions evaluate against a tuple.Tuple and carry
// a stable Signature() string so the OSP coordinator can compare the encoded
// argument lists of two packets cheaply (paper §4.3: "a quick check of the
// encoded argument list for each packet").
package expr

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"

	"qpipe/internal/tuple"
)

// Expr is a scalar expression over an input tuple.
type Expr interface {
	// Eval computes the expression's value for one input tuple.
	Eval(t tuple.Tuple) tuple.Value
	// Signature renders a canonical encoding of the expression used for
	// run-time overlap detection. Structurally identical expressions have
	// identical signatures.
	Signature() string
}

// ---- Leaves ----------------------------------------------------------------

// ColRef references an input column by position.
type ColRef struct {
	Ix   int
	Name string // optional, for display only
}

// Col constructs a column reference.
func Col(ix int) *ColRef { return &ColRef{Ix: ix} }

// NamedCol constructs a column reference that remembers its display name.
func NamedCol(ix int, name string) *ColRef { return &ColRef{Ix: ix, Name: name} }

// Eval implements Expr.
func (c *ColRef) Eval(t tuple.Tuple) tuple.Value { return t[c.Ix] }

// Signature implements Expr. Only the position matters for equivalence.
func (c *ColRef) Signature() string { return "c" + strconv.Itoa(c.Ix) }

// Const is a constant value.
type Const struct{ V tuple.Value }

// CInt, CFloat, CStr and CDate build constants of each kind.
func CInt(v int64) *Const     { return &Const{V: tuple.I64(v)} }
func CFloat(v float64) *Const { return &Const{V: tuple.F64(v)} }
func CStr(v string) *Const    { return &Const{V: tuple.Str(v)} }
func CDate(v int64) *Const    { return &Const{V: tuple.Date(v)} }

// Eval implements Expr.
func (c *Const) Eval(tuple.Tuple) tuple.Value { return c.V }

// Signature implements Expr.
func (c *Const) Signature() string {
	return "k" + strconv.Itoa(int(c.V.K)) + ":" + c.V.String()
}

// ---- Arithmetic ------------------------------------------------------------

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith is a binary arithmetic expression. Integer inputs produce integer
// results except for division, which always produces a float (matching how
// the TPC-H aggregate expressions like l_extendedprice*(1-l_discount) are
// computed in practice).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Add, Sub, Mul and Div build arithmetic nodes.
func Add(l, r Expr) *Arith { return &Arith{Op: OpAdd, L: l, R: r} }
func Sub(l, r Expr) *Arith { return &Arith{Op: OpSub, L: l, R: r} }
func Mul(l, r Expr) *Arith { return &Arith{Op: OpMul, L: l, R: r} }
func Div(l, r Expr) *Arith { return &Arith{Op: OpDiv, L: l, R: r} }

// Eval implements Expr.
func (a *Arith) Eval(t tuple.Tuple) tuple.Value {
	l, r := a.L.Eval(t), a.R.Eval(t)
	if a.Op == OpDiv {
		rf := r.AsFloat()
		if rf == 0 {
			return tuple.F64(0)
		}
		return tuple.F64(l.AsFloat() / rf)
	}
	if l.K == tuple.KindInt && r.K == tuple.KindInt {
		switch a.Op {
		case OpAdd:
			return tuple.I64(l.I + r.I)
		case OpSub:
			return tuple.I64(l.I - r.I)
		case OpMul:
			return tuple.I64(l.I * r.I)
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch a.Op {
	case OpAdd:
		return tuple.F64(lf + rf)
	case OpSub:
		return tuple.F64(lf - rf)
	default:
		return tuple.F64(lf * rf)
	}
}

// Signature implements Expr.
func (a *Arith) Signature() string {
	return "(" + a.L.Signature() + a.Op.String() + a.R.Signature() + ")"
}

// ---- Predicates ------------------------------------------------------------

// Pred is a boolean predicate over an input tuple.
type Pred interface {
	Test(t tuple.Tuple) bool
	Signature() string
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Cmp compares two scalar expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// EQ..GE build comparison predicates.
func EQ(l, r Expr) *Cmp { return &Cmp{Op: CmpEQ, L: l, R: r} }
func NE(l, r Expr) *Cmp { return &Cmp{Op: CmpNE, L: l, R: r} }
func LT(l, r Expr) *Cmp { return &Cmp{Op: CmpLT, L: l, R: r} }
func LE(l, r Expr) *Cmp { return &Cmp{Op: CmpLE, L: l, R: r} }
func GT(l, r Expr) *Cmp { return &Cmp{Op: CmpGT, L: l, R: r} }
func GE(l, r Expr) *Cmp { return &Cmp{Op: CmpGE, L: l, R: r} }

// Holds reports whether the operator accepts a three-way comparison result
// (tuple.Compare's or tuple.CompareEncoded's, left operand against right).
func (o CmpOp) Holds(r int) bool {
	switch o {
	case CmpEQ:
		return r == 0
	case CmpNE:
		return r != 0
	case CmpLT:
		return r < 0
	case CmpLE:
		return r <= 0
	case CmpGT:
		return r > 0
	default:
		return r >= 0
	}
}

// Test implements Pred.
func (c *Cmp) Test(t tuple.Tuple) bool {
	return c.Op.Holds(tuple.Compare(c.L.Eval(t), c.R.Eval(t)))
}

// Signature implements Pred.
func (c *Cmp) Signature() string {
	return "(" + c.L.Signature() + c.Op.String() + c.R.Signature() + ")"
}

// And is an n-ary conjunction.
type And struct{ Ps []Pred }

// AndOf builds a conjunction; nil and empty conjunctions are always true.
func AndOf(ps ...Pred) *And { return &And{Ps: ps} }

// Test implements Pred.
func (a *And) Test(t tuple.Tuple) bool {
	for _, p := range a.Ps {
		if !p.Test(t) {
			return false
		}
	}
	return true
}

// Signature implements Pred.
func (a *And) Signature() string {
	parts := make([]string, len(a.Ps))
	for i, p := range a.Ps {
		parts[i] = p.Signature()
	}
	return "and(" + strings.Join(parts, ",") + ")"
}

// Or is an n-ary disjunction.
type Or struct{ Ps []Pred }

// OrOf builds a disjunction; empty disjunctions are always false.
func OrOf(ps ...Pred) *Or { return &Or{Ps: ps} }

// Test implements Pred.
func (o *Or) Test(t tuple.Tuple) bool {
	for _, p := range o.Ps {
		if p.Test(t) {
			return true
		}
	}
	return false
}

// Signature implements Pred.
func (o *Or) Signature() string {
	parts := make([]string, len(o.Ps))
	for i, p := range o.Ps {
		parts[i] = p.Signature()
	}
	return "or(" + strings.Join(parts, ",") + ")"
}

// Not negates a predicate.
type Not struct{ P Pred }

// NotOf builds a negation.
func NotOf(p Pred) *Not { return &Not{P: p} }

// Test implements Pred.
func (n *Not) Test(t tuple.Tuple) bool { return !n.P.Test(t) }

// Signature implements Pred.
func (n *Not) Signature() string { return "not(" + n.P.Signature() + ")" }

// True is a predicate that always holds; used where a plan slot requires a
// predicate but the query has none.
type True struct{}

// Test implements Pred.
func (True) Test(tuple.Tuple) bool { return true }

// Signature implements Pred.
func (True) Signature() string { return "true" }

// In tests membership of an expression in a fixed set of values (used by
// TPC-H Q12's l_shipmode IN ('MAIL','SHIP') and Q19's bracket predicates).
type In struct {
	E    Expr
	Vals []tuple.Value
}

// InOf builds a membership predicate.
func InOf(e Expr, vals ...tuple.Value) *In { return &In{E: e, Vals: vals} }

// Test implements Pred.
func (in *In) Test(t tuple.Tuple) bool {
	v := in.E.Eval(t)
	for _, w := range in.Vals {
		if tuple.Equal(v, w) {
			return true
		}
	}
	return false
}

// Signature implements Pred.
func (in *In) Signature() string {
	parts := make([]string, len(in.Vals))
	for i, v := range in.Vals {
		parts[i] = v.String()
	}
	return "in(" + in.E.Signature() + ";" + strings.Join(parts, ",") + ")"
}

// Between is an inclusive range predicate, common in TPC-H date filters.
type Between struct {
	E        Expr
	Lo, Hi   tuple.Value
	LoX, HiX bool // exclusive bounds when true
}

// BetweenOf builds an inclusive range predicate lo <= e <= hi.
func BetweenOf(e Expr, lo, hi tuple.Value) *Between { return &Between{E: e, Lo: lo, Hi: hi} }

// Test implements Pred.
func (b *Between) Test(t tuple.Tuple) bool {
	v := b.E.Eval(t)
	lc := tuple.Compare(v, b.Lo)
	hc := tuple.Compare(v, b.Hi)
	if b.LoX {
		if lc <= 0 {
			return false
		}
	} else if lc < 0 {
		return false
	}
	if b.HiX {
		return hc < 0
	}
	return hc <= 0
}

// Signature implements Pred.
func (b *Between) Signature() string {
	return "btw(" + b.E.Signature() + ";" + b.Lo.String() + ";" + b.Hi.String() + ";" +
		strconv.FormatBool(b.LoX) + ";" + strconv.FormatBool(b.HiX) + ")"
}

// Cond is a conditional expression (CASE WHEN p THEN a ELSE b END), used by
// TPC-H-style conditional aggregates such as Q14's promo revenue share.
type Cond struct {
	If         Pred
	Then, Else Expr
}

// CondOf builds a conditional expression.
func CondOf(p Pred, then, els Expr) *Cond { return &Cond{If: p, Then: then, Else: els} }

// Eval implements Expr.
func (c *Cond) Eval(t tuple.Tuple) tuple.Value {
	if c.If.Test(t) {
		return c.Then.Eval(t)
	}
	return c.Else.Eval(t)
}

// Signature implements Expr.
func (c *Cond) Signature() string {
	return "cond(" + c.If.Signature() + ";" + c.Then.Signature() + ";" + c.Else.Signature() + ")"
}

// ---- Introspection ---------------------------------------------------------

// ExprRefs calls fn with the column index of every column reference in e
// (validation hook: plan.Validate bounds-checks references against the
// input schema). Unknown expression types contribute nothing.
func ExprRefs(e Expr, fn func(ix int)) {
	switch x := e.(type) {
	case *ColRef:
		fn(x.Ix)
	case *Arith:
		ExprRefs(x.L, fn)
		ExprRefs(x.R, fn)
	case *Cond:
		PredRefs(x.If, fn)
		ExprRefs(x.Then, fn)
		ExprRefs(x.Else, fn)
	}
}

// PredRefs is ExprRefs for predicates.
func PredRefs(p Pred, fn func(ix int)) {
	switch x := p.(type) {
	case *Cmp:
		ExprRefs(x.L, fn)
		ExprRefs(x.R, fn)
	case *And:
		for _, q := range x.Ps {
			PredRefs(q, fn)
		}
	case *Or:
		for _, q := range x.Ps {
			PredRefs(q, fn)
		}
	case *Not:
		PredRefs(x.P, fn)
	case *In:
		ExprRefs(x.E, fn)
	case *Between:
		ExprRefs(x.E, fn)
	}
}

// Conjuncts returns the top-level conjuncts of p: the operands of an And,
// p itself otherwise, nothing for a nil predicate.
func Conjuncts(p Pred) []Pred {
	switch x := p.(type) {
	case nil:
		return nil
	case *And:
		return x.Ps
	}
	return []Pred{p}
}

// ColConst reads p as a comparison of one column with one constant and
// returns it oriented column-op-constant (the operator mirrored when the
// constant stands on the left). ok is false for any other predicate.
func ColConst(p Pred) (col int, op CmpOp, v tuple.Value, ok bool) {
	c, isCmp := p.(*Cmp)
	if !isCmp {
		return 0, 0, tuple.Value{}, false
	}
	l, r, op := c.L, c.R, c.Op
	if isConst(l) {
		l, r, op = r, l, mirror(op)
	}
	ref, isRef := l.(*ColRef)
	k, isK := r.(*Const)
	if !isRef || !isK {
		return 0, 0, tuple.Value{}, false
	}
	return ref.Ix, op, k.V, true
}

// ---- Aggregates ------------------------------------------------------------

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[k]
}

// AggSpec describes one aggregate output column: a function applied to an
// input expression (nil for COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  Expr // nil allowed for AggCount
	Name string
}

// Signature renders the aggregate spec canonically.
func (a AggSpec) Signature() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.Signature()
	}
	return a.Kind.String() + "(" + arg + ")"
}

// AggState accumulates one aggregate. Each kind keeps only its own state:
// COUNT a counter, MIN/MAX one value, SUM/AVG the running sum.
//
// The sum does not depend on the order of the addends: it is held as
// Shewchuk's non-overlapping partials (the algorithm of Python's math.fsum),
// whose total is the exact real sum of everything added, and Result rounds
// that total once. Parallel aggregation merges partial states in scheduler
// order and a circular scan starts wherever its host was, so there is no
// fixed order to pin; an exact sum needs none. hi is the largest partial and
// lows the smaller ones in increasing magnitude — empty for as long as every
// addition is exact (integer-valued floats), when Add is a single two-sum.
// A sum whose running total leaves the finite range, or that was handed an
// infinity or a NaN, is carried in special and reported as that.
// Rows come one at a time or, from a page's number vector, a whole selection
// in one AddNumbers call.
type AggState struct {
	spec    AggSpec
	count   int64
	hi      float64
	lows    []float64
	special float64
	ext     tuple.Value // the minimum or the maximum so far
	seen    bool
}

// NewAggState creates an accumulator for the spec.
func NewAggState(spec AggSpec) *AggState { return &AggState{spec: spec} }

// Add folds one input tuple into the accumulator.
func (s *AggState) Add(t tuple.Tuple) {
	if s.spec.Arg == nil || s.spec.Kind == AggCount {
		s.count++
		return
	}
	s.AddValue(s.spec.Arg.Eval(t))
}

// AddValue folds one value of the argument.
func (s *AggState) AddValue(v tuple.Value) {
	s.count++
	switch s.spec.Kind {
	case AggSum, AggAvg:
		s.addFloat(v.AsFloat())
	case AggMin, AggMax:
		s.addExtreme(v)
	}
}

// AddEncoded is AddValue of the encoded value at the start of b (one
// tuple.ValueWidth accepted), read where it lies: a number is AddNumber of its
// payload, a string compared in place by a MIN or MAX and decoded only as a new
// extreme.
func (s *AggState) AddEncoded(b []byte) {
	if k := tuple.Kind(b[0]); k != tuple.KindString {
		s.AddNumber(k, binary.LittleEndian.Uint64(b[1:]))
		return
	}
	s.count++ // a string adds nothing to a sum, as Value.AsFloat has it
	if s.spec.Kind == AggMin || s.spec.Kind == AggMax {
		if s.seen {
			c := tuple.CompareEncoded(b, s.ext)
			if c == 0 || (c < 0) != (s.spec.Kind == AggMin) {
				return
			}
		}
		s.ext, s.seen = tuple.DecodeValue(b), true
	}
}

// AddNumber is AddValue of the number of kind k with payload bits (an entry
// of a page's number vector, tuple.Vectors): a sum takes it as a float, a MIN
// or MAX compares it as it is and makes a Value only of a new extreme.
func (s *AggState) AddNumber(k tuple.Kind, bits uint64) {
	s.count++
	switch s.spec.Kind {
	case AggSum, AggAvg:
		if k == tuple.KindFloat {
			s.addFloat(math.Float64frombits(bits))
		} else {
			s.addFloat(float64(int64(bits)))
		}
	case AggMin, AggMax:
		if s.seen {
			c := tuple.CompareNumber(k, bits, s.ext)
			if c == 0 || (c < 0) != (s.spec.Kind == AggMin) {
				return
			}
		}
		s.ext, s.seen = tuple.Value{}, true
		tuple.SetNumber(&s.ext, k, bits)
	}
}

// AddCount counts n input rows: all an aggregate without argument wants of
// them.
func (s *AggState) AddCount(n int64) { s.count += n }

// AddNumbers is AddNumber(k, vec[rows[i]]) into states[groups[i]][j] for every
// i — aggregate j of each selected row's group — in one call, bit for bit the
// same. A SUM or AVG takes a run of rows of one group at a time and keeps its
// running sum in a local for as long as each two-sum is exact, counting the
// run once; at the first inexact addend it hands the rest of the run to
// addFloat. Every other kind goes a row at a time.
func AddNumbers(states [][]*AggState, j int, groups []int32, k tuple.Kind, vec []uint64, rows []int32) {
	for i := 0; i < len(rows); {
		g, start := groups[i], i
		s := states[g][j]
		if s.spec.Kind != AggSum && s.spec.Kind != AggAvg {
			s.AddNumber(k, vec[rows[i]])
			i++
			continue
		}
		hi, exact := s.hi, len(s.lows) == 0
		for ; i < len(rows) && groups[i] == g; i++ {
			b := vec[rows[i]]
			x := math.Float64frombits(b)
			if k != tuple.KindFloat {
				x = float64(int64(b))
			}
			if exact {
				if h, lo := twoSum(x, hi); lo == 0 && h-h == 0 {
					hi = h
					continue
				}
				s.hi, exact = hi, false
			}
			s.addFloat(x)
		}
		if exact {
			s.hi = hi
		}
		s.count += int64(i - start)
	}
}

// addExtreme keeps v when it beats the extreme held so far.
func (s *AggState) addExtreme(v tuple.Value) {
	if s.seen {
		c := tuple.Compare(v, s.ext)
		if c == 0 || (c < 0) != (s.spec.Kind == AggMin) {
			return
		}
	}
	s.ext, s.seen = v, true
}

// addFloat adds x to the partials exactly: each two-sum passes the rounded
// sum upward and keeps the rounding error, when there is one, as a partial.
// While every addition is exact — integer-valued floats — it is one two-sum.
func (s *AggState) addFloat(x float64) {
	if len(s.lows) == 0 {
		if hi, lo := twoSum(x, s.hi); lo == 0 && hi-hi == 0 { // exact, and neither NaN nor infinite
			s.hi = hi
			return
		}
	}
	s.addInexact(x)
}

func (s *AggState) addInexact(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	n := 0
	for _, y := range s.lows {
		var lo float64
		if x, lo = twoSum(x, y); lo != 0 {
			s.lows[n] = lo
			n++
		}
	}
	s.lows = s.lows[:n]
	hi, lo := twoSum(x, s.hi)
	if math.IsInf(hi, 0) {
		s.special += hi
		s.hi, s.lows = 0, s.lows[:0]
		return
	}
	if lo != 0 {
		s.lows = append(s.lows, lo)
	}
	s.hi = hi
}

// twoSum returns the rounded sum of a and b and its rounding error:
// hi + lo == a + b exactly.
func twoSum(a, b float64) (hi, lo float64) {
	if math.Abs(a) < math.Abs(b) {
		a, b = b, a
	}
	hi = a + b
	return hi, b - (hi - a)
}

// Merge folds another accumulator of the same spec into s (used by the
// parallel aggregate µEngine when multiple workers partition the input).
func (s *AggState) Merge(o *AggState) {
	s.count += o.count
	switch s.spec.Kind {
	case AggSum, AggAvg:
		for _, p := range o.lows {
			s.addFloat(p)
		}
		s.addFloat(o.hi)
		s.special += o.special
	case AggMin, AggMax:
		if o.seen {
			s.addExtreme(o.ext)
		}
	}
}

// sum rounds the exact total of the partials to the nearest float64 (ties
// to even), once — math.fsum's final step.
func (s *AggState) sum() float64 {
	if s.special != 0 || math.IsNaN(s.special) {
		return s.special
	}
	hi := s.hi
	n := len(s.lows)
	var lo float64
	for n > 0 {
		// Add the partials from the top until the sum stops being exact.
		n--
		x := hi
		hi = x + s.lows[n]
		if lo = s.lows[n] - (hi - x); lo != 0 {
			break
		}
	}
	// A rounding error of exactly half an ulp was rounded to even without
	// looking below it: a further partial of the same sign decides it.
	if n > 0 && (lo < 0) == (s.lows[n-1] < 0) {
		if y := lo * 2; y == (hi+y)-hi {
			hi += y
		}
	}
	return hi
}

// Result returns the aggregate's final value.
func (s *AggState) Result() tuple.Value {
	switch s.spec.Kind {
	case AggCount:
		return tuple.I64(s.count)
	case AggSum:
		return tuple.F64(s.sum())
	case AggAvg:
		if s.count == 0 {
			return tuple.F64(0)
		}
		return tuple.F64(s.sum() / float64(s.count))
	default:
		return s.ext
	}
}
