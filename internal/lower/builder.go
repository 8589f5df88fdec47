// The builder: each call resolves the names it introduces against its input
// schema, so a mistake is a typed error from Compile, not a panic in a µEngine.
package lower

import (
	"errors"
	"fmt"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/stats"
	"qpipe/internal/tuple"
)

// ---- Scalar expressions ------------------------------------------------------

type exprKind uint8

const (
	eCol exprKind = iota
	eLit
	eArith
)

// Expr is a scalar expression over named columns, built from Col and the
// literal constructors and combined with arithmetic methods. Expressions
// resolve against the input schema when the builder step using them runs.
type Expr struct {
	kind  exprKind
	name  string      // eCol
	val   tuple.Value // eLit
	op    expr.ArithOp
	l, r  *Expr
	alias string
}

// Col references an input column by name.
func Col(name string) Expr { return Expr{kind: eCol, name: name} }

// Int is an integer literal expression.
func Int(v int64) Expr { return Lit(tuple.I64(v)) }

// Float is a float literal expression.
func Float(v float64) Expr { return Lit(tuple.F64(v)) }

// String is a string literal expression.
func String(v string) Expr { return Lit(tuple.Str(v)) }

// Date is a date literal expression (days since 1970-01-01).
func Date(days int64) Expr { return Lit(tuple.Date(days)) }

// Lit lifts a Value into a literal expression.
func Lit(v tuple.Value) Expr { return Expr{kind: eLit, val: v} }

func arith(op expr.ArithOp, l, r Expr) Expr { return Expr{kind: eArith, op: op, l: &l, r: &r} }

// Add returns e + o.
func (e Expr) Add(o Expr) Expr { return arith(expr.OpAdd, e, o) }

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return arith(expr.OpSub, e, o) }

// Mul returns e * o.
func (e Expr) Mul(o Expr) Expr { return arith(expr.OpMul, e, o) }

// Div returns e / o (always float; division by zero yields 0).
func (e Expr) Div(o Expr) Expr { return arith(expr.OpDiv, e, o) }

// As names the expression's output column in a Project.
func (e Expr) As(name string) Expr {
	e.alias = name
	return e
}

// String renders the expression for error messages.
func (e Expr) String() string {
	switch e.kind {
	case eCol:
		return e.name
	case eLit:
		return e.val.String()
	default:
		return "(" + e.l.String() + e.op.String() + e.r.String() + ")"
	}
}

// outName is the projection column name: the alias, a plain column's own
// name, or a positional fallback.
func (e Expr) outName(pos int) string {
	if e.alias != "" {
		return e.alias
	}
	if e.kind == eCol {
		return e.name
	}
	return fmt.Sprintf("e%d", pos)
}

// numericKind reports membership in the mutually-comparable numeric group.
func numericKind(k tuple.Kind) bool {
	return k == tuple.KindInt || k == tuple.KindFloat || k == tuple.KindDate
}

// compatibleKinds reports whether two kinds may meet in a comparison or
// arithmetic node. KindInvalid marks intermediate columns whose kind is
// unknown at build time (projection outputs) and is compatible with
// anything.
func compatibleKinds(a, b tuple.Kind) bool {
	if a == 0 || b == 0 { // KindInvalid
		return true
	}
	if numericKind(a) && numericKind(b) {
		return true
	}
	return a == b
}

// widenValue is the one literal-widening rule: it losslessly converts an
// integer literal to the kind of the column it meets (float or date) and
// leaves every other value as it is. Predicates use it so the literal renders
// in one canonical form — `amount > 30` and `amount > 30.0` must produce the
// same Signature() for OSP to match them; INSERT VALUES and UPDATE SET use it
// to store an integer literal in a float or date column.
func widenValue(v tuple.Value, to tuple.Kind) tuple.Value {
	if v.K == tuple.KindInt {
		switch to {
		case tuple.KindFloat:
			return tuple.F64(float64(v.I))
		case tuple.KindDate:
			return tuple.Date(v.I)
		}
	}
	return v
}

// widenConst applies widenValue when e is a literal constant.
func widenConst(e expr.Expr, other tuple.Kind) expr.Expr {
	if c, ok := e.(*expr.Const); ok {
		if w := widenValue(c.V, other); w.K != c.V.K {
			return &expr.Const{V: w}
		}
	}
	return e
}

// resolve lowers the expression against a schema, returning the positional
// expression and its result kind.
func (e Expr) resolve(s *tuple.Schema) (expr.Expr, tuple.Kind, error) {
	switch e.kind {
	case eCol:
		ix := s.ColIndex(e.name)
		if ix < 0 {
			return nil, 0, &UnknownColumnError{Column: e.name, Schema: s.String()}
		}
		return expr.NamedCol(ix, e.name), s.Cols[ix].Kind, nil
	case eLit:
		return &expr.Const{V: e.val}, e.val.K, nil
	default:
		le, lk, err := e.l.resolve(s)
		if err != nil {
			return nil, 0, err
		}
		re, rk, err := e.r.resolve(s)
		if err != nil {
			return nil, 0, err
		}
		if !compatibleKinds(lk, rk) || lk == tuple.KindString || rk == tuple.KindString {
			return nil, 0, &TypeMismatchError{Expr: e.String(), Left: lk, Right: rk}
		}
		out := tuple.KindFloat
		if lk == tuple.KindInt && rk == tuple.KindInt && e.op != expr.OpDiv {
			out = tuple.KindInt
		}
		return &expr.Arith{Op: e.op, L: le, R: re}, out, nil
	}
}

// ---- Predicates --------------------------------------------------------------

type predKind uint8

const (
	pCmp predKind = iota
	pAnd
	pOr
	pNot
	pIn
	pBetween
)

// Pred is a boolean predicate over named columns.
type Pred struct {
	kind   predKind
	cmp    expr.CmpOp
	l, r   *Expr
	subs   []Pred
	vals   []tuple.Value
	lo, hi tuple.Value
}

func cmpPred(op expr.CmpOp, l, r Expr) Pred { return Pred{kind: pCmp, cmp: op, l: &l, r: &r} }

// Eq returns e = o.
func (e Expr) Eq(o Expr) Pred { return cmpPred(expr.CmpEQ, e, o) }

// Ne returns e <> o.
func (e Expr) Ne(o Expr) Pred { return cmpPred(expr.CmpNE, e, o) }

// Lt returns e < o.
func (e Expr) Lt(o Expr) Pred { return cmpPred(expr.CmpLT, e, o) }

// Le returns e <= o.
func (e Expr) Le(o Expr) Pred { return cmpPred(expr.CmpLE, e, o) }

// Gt returns e > o.
func (e Expr) Gt(o Expr) Pred { return cmpPred(expr.CmpGT, e, o) }

// Ge returns e >= o.
func (e Expr) Ge(o Expr) Pred { return cmpPred(expr.CmpGE, e, o) }

// In tests membership in a fixed set of values.
func (e Expr) In(vals ...tuple.Value) Pred { return Pred{kind: pIn, l: &e, vals: vals} }

// Between is the inclusive range predicate lo <= e <= hi.
func (e Expr) Between(lo, hi tuple.Value) Pred { return Pred{kind: pBetween, l: &e, lo: lo, hi: hi} }

// And is an n-ary conjunction.
func And(ps ...Pred) Pred { return Pred{kind: pAnd, subs: ps} }

// Or is an n-ary disjunction.
func Or(ps ...Pred) Pred { return Pred{kind: pOr, subs: ps} }

// Not negates a predicate.
func Not(p Pred) Pred { return Pred{kind: pNot, subs: []Pred{p}} }

// And returns p AND q.
func (p Pred) And(q Pred) Pred { return And(p, q) }

// Or returns p OR q.
func (p Pred) Or(q Pred) Pred { return Or(p, q) }

// resolve lowers the predicate against a schema.
func (p Pred) resolve(s *tuple.Schema) (expr.Pred, error) {
	switch p.kind {
	case pCmp:
		le, lk, err := p.l.resolve(s)
		if err != nil {
			return nil, err
		}
		re, rk, err := p.r.resolve(s)
		if err != nil {
			return nil, err
		}
		if !compatibleKinds(lk, rk) {
			return nil, &TypeMismatchError{
				Expr: "(" + p.l.String() + p.cmp.String() + p.r.String() + ")", Left: lk, Right: rk}
		}
		le, re = widenConst(le, rk), widenConst(re, lk)
		return &expr.Cmp{Op: p.cmp, L: le, R: re}, nil
	case pAnd, pOr:
		ps := make([]expr.Pred, len(p.subs))
		for i, q := range p.subs {
			rp, err := q.resolve(s)
			if err != nil {
				return nil, err
			}
			ps[i] = rp
		}
		if p.kind == pAnd {
			return &expr.And{Ps: ps}, nil
		}
		return &expr.Or{Ps: ps}, nil
	case pNot:
		rp, err := p.subs[0].resolve(s)
		if err != nil {
			return nil, err
		}
		return &expr.Not{P: rp}, nil
	case pIn:
		le, lk, err := p.l.resolve(s)
		if err != nil {
			return nil, err
		}
		vals := make([]tuple.Value, len(p.vals))
		for i, v := range p.vals {
			if !compatibleKinds(lk, v.K) {
				return nil, &TypeMismatchError{Expr: p.l.String() + " IN (...)", Left: lk, Right: v.K}
			}
			vals[i] = widenValue(v, lk)
		}
		return &expr.In{E: le, Vals: vals}, nil
	default: // pBetween
		le, lk, err := p.l.resolve(s)
		if err != nil {
			return nil, err
		}
		for _, b := range [2]tuple.Value{p.lo, p.hi} {
			if !compatibleKinds(lk, b.K) {
				return nil, &TypeMismatchError{Expr: p.l.String() + " BETWEEN", Left: lk, Right: b.K}
			}
		}
		return &expr.Between{E: le, Lo: widenValue(p.lo, lk), Hi: widenValue(p.hi, lk)}, nil
	}
}

// ---- Aggregates --------------------------------------------------------------

// Agg is one aggregate output column of a GroupBy or Aggregate step.
type Agg struct {
	kind expr.AggKind
	arg  *Expr // nil for COUNT(*)
	name string
}

// Count is COUNT(*).
func Count() Agg { return Agg{kind: expr.AggCount} }

// Sum aggregates the sum of an expression.
func Sum(e Expr) Agg { return Agg{kind: expr.AggSum, arg: &e} }

// Avg aggregates the mean of an expression.
func Avg(e Expr) Agg { return Agg{kind: expr.AggAvg, arg: &e} }

// Min aggregates the minimum of an expression.
func Min(e Expr) Agg { return Agg{kind: expr.AggMin, arg: &e} }

// Max aggregates the maximum of an expression.
func Max(e Expr) Agg { return Agg{kind: expr.AggMax, arg: &e} }

// As names the aggregate's output column.
func (a Agg) As(name string) Agg {
	a.name = name
	return a
}

// resolve lowers the aggregate against the input schema.
func (a Agg) resolve(s *tuple.Schema) (expr.AggSpec, error) {
	spec := expr.AggSpec{Kind: a.kind, Name: a.name}
	if a.arg != nil {
		ae, ak, err := a.arg.resolve(s)
		if err != nil {
			return spec, err
		}
		if a.kind != expr.AggMin && a.kind != expr.AggMax && ak == tuple.KindString {
			return spec, &TypeMismatchError{Expr: a.kind.String() + "(" + a.arg.String() + ")",
				Left: ak, Right: tuple.KindFloat}
		}
		spec.Arg = ae
	}
	return spec, nil
}

// outName is the aggregate's output column name.
func (a Agg) outName() string {
	if a.name != "" {
		return a.name
	}
	arg := "*"
	if a.arg != nil {
		arg = a.arg.String()
	}
	return a.kind.String() + "(" + arg + ")"
}

// ---- Query builder -----------------------------------------------------------

// Query is an immutable builder value over a partially-constructed plan:
// each step returns a new one, and the first resolution error sticks.
type Query struct {
	cat   Catalog
	node  plan.Node
	err   error
	limit int64 // < 0: none; see Compile
}

// Scan starts a query reading every row of a table.
func Scan(cat Catalog, table string) Query {
	s, err := cat.Schema(table)
	if err != nil {
		return Query{cat: cat, err: err, limit: -1}
	}
	return Query{cat: cat, node: plan.NewTableScan(table, s, nil, nil, false), limit: -1}
}

// ScanIndex starts a query reading a table through its index on col, the
// clustered one if col has it, restricted to lo <= col <= hi.
func ScanIndex(cat Catalog, table, col string, lo, hi tuple.Value) Query {
	s, err := cat.Schema(table)
	if err == nil && s.ColIndex(col) < 0 {
		err = &UnknownColumnError{Column: col, Schema: s.String()}
	}
	if err != nil {
		return Query{cat: cat, err: err, limit: -1}
	}
	found, clustered := false, false
	for _, ix := range cat.Indexes(table) {
		if ix.Col == col {
			found, clustered = true, clustered || ix.Clustered
		}
	}
	if !found {
		return Query{cat: cat, err: &NoIndexError{Table: table, Column: col}, limit: -1}
	}
	return Query{cat: cat, limit: -1,
		node: plan.NewIndexScan(table, s, col, lo, hi, clustered, clustered, nil, nil)}
}

// FromPlan wraps an already-built plan as a Query over cat.
func FromPlan(cat Catalog, n plan.Node) Query { return Query{cat: cat, node: n, limit: -1} }

func (q Query) fail(err error) Query { return Query{cat: q.cat, err: err, limit: -1} }

func (q Query) with(node plan.Node) Query {
	q.node = node
	return q
}

// Filter keeps rows satisfying the predicate.
func (q Query) Filter(p Pred) Query {
	if q.err != nil {
		return q
	}
	rp, err := p.resolve(q.node.Schema())
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewFilter(q.node, rp))
}

// Project computes the given expressions as the output columns.
func (q Query) Project(exprs ...Expr) Query {
	if q.err != nil {
		return q
	}
	in := q.node.Schema()
	res := make([]expr.Expr, len(exprs))
	kinds := make([]tuple.Kind, len(exprs))
	names := make([]string, len(exprs))
	seen := make(map[string]bool, len(exprs))
	for i, e := range exprs {
		re, k, err := e.resolve(in)
		if err != nil {
			return q.fail(err)
		}
		res[i], kinds[i] = re, k
		names[i] = e.outName(i)
		if seen[names[i]] {
			return q.fail(&DuplicateColumnError{Column: names[i]})
		}
		seen[names[i]] = true
	}
	node := plan.NewProject(q.node, res, names)
	// NewProject marks output kinds unknown; the builder resolved them, so
	// keep them for downstream type checking.
	for i, k := range kinds {
		node.Schema().Cols[i].Kind = k
	}
	return q.with(node)
}

// Select keeps only the named columns, in the given order.
func (q Query) Select(cols ...string) Query {
	exprs := make([]Expr, len(cols))
	for i, c := range cols {
		exprs[i] = Col(c)
	}
	return q.Project(exprs...)
}

// resolveJoinKeys resolves one equi-join's key columns and checks they are
// comparable.
func (q Query) resolveJoinKeys(r Query, leftCol, rightCol string) (lk, rk int, err error) {
	ls, rs := q.node.Schema(), r.node.Schema()
	lk = ls.ColIndex(leftCol)
	if lk < 0 {
		return 0, 0, &UnknownColumnError{Column: leftCol, Schema: ls.String()}
	}
	rk = rs.ColIndex(rightCol)
	if rk < 0 {
		return 0, 0, &UnknownColumnError{Column: rightCol, Schema: rs.String()}
	}
	if !compatibleKinds(ls.Cols[lk].Kind, rs.Cols[rk].Kind) {
		return 0, 0, &TypeMismatchError{
			Expr: leftCol + "=" + rightCol, Left: ls.Cols[lk].Kind, Right: rs.Cols[rk].Kind}
	}
	return lk, rk, nil
}

func (q Query) joinPre(r Query) error {
	if q.err != nil {
		return q.err
	}
	if r.err != nil {
		return r.err
	}
	if r.cat != q.cat {
		return errors.New("qpipe: joined queries must come from the same DB")
	}
	return nil
}

// Join hash-joins q (build side) with r (probe side) on leftCol = rightCol.
func (q Query) Join(r Query, leftCol, rightCol string) Query {
	if err := q.joinPre(r); err != nil {
		return q.fail(err)
	}
	lk, rk, err := q.resolveJoinKeys(r, leftCol, rightCol)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewHashJoin(q.node, r.node, lk, rk))
}

// MergeJoin merge-joins q with r, both ordered on their key, on leftCol = rightCol.
func (q Query) MergeJoin(r Query, leftCol, rightCol string) Query {
	if err := q.joinPre(r); err != nil {
		return q.fail(err)
	}
	lk, rk, err := q.resolveJoinKeys(r, leftCol, rightCol)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewMergeJoin(q.node, r.node, lk, rk, false))
}

// JoinOn nested-loop joins q (outer) with r on a predicate over both rows.
func (q Query) JoinOn(r Query, on Pred) Query {
	if err := q.joinPre(r); err != nil {
		return q.fail(err)
	}
	joined := q.node.Schema().Concat(r.node.Schema())
	rp, err := on.resolve(joined)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewNLJoin(q.node, r.node, rp))
}

// GroupBy hash-groups on the key columns and computes the aggregates per group.
func (q Query) GroupBy(keys []string, aggs ...Agg) Query {
	if q.err != nil {
		return q
	}
	in := q.node.Schema()
	kix := make([]int, len(keys))
	seen := make(map[string]bool, len(keys)+len(aggs))
	for i, k := range keys {
		kix[i] = in.ColIndex(k)
		if kix[i] < 0 {
			return q.fail(&UnknownColumnError{Column: k, Schema: in.String()})
		}
		if seen[k] {
			return q.fail(&DuplicateColumnError{Column: k})
		}
		seen[k] = true
	}
	specs, err := resolveAggs(in, aggs, seen)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewGroupBy(q.node, kix, specs))
}

// Aggregate computes scalar aggregates over the whole input, emitting one row.
func (q Query) Aggregate(aggs ...Agg) Query {
	if q.err != nil {
		return q
	}
	specs, err := resolveAggs(q.node.Schema(), aggs, make(map[string]bool, len(aggs)))
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewAggregate(q.node, specs))
}

// resolveAggs resolves a step's aggregates, refusing an output name already
// in seen.
func resolveAggs(in *tuple.Schema, aggs []Agg, seen map[string]bool) ([]expr.AggSpec, error) {
	specs := make([]expr.AggSpec, len(aggs))
	for i, a := range aggs {
		spec, err := a.resolve(in)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		n := a.outName()
		if seen[n] {
			return nil, &DuplicateColumnError{Column: n}
		}
		seen[n] = true
	}
	return specs, nil
}

// Sort orders the output ascending on the named columns.
func (q Query) Sort(cols ...string) Query { return q.sort(false, cols) }

// SortDesc orders the output descending on the named columns.
func (q Query) SortDesc(cols ...string) Query { return q.sort(true, cols) }

func (q Query) sort(desc bool, cols []string) Query {
	if q.err != nil {
		return q
	}
	in := q.node.Schema()
	keys := make([]int, len(cols))
	for i, c := range cols {
		keys[i] = in.ColIndex(c)
		if keys[i] < 0 {
			return q.fail(&UnknownColumnError{Column: c, Schema: in.String()})
		}
	}
	return q.with(plan.NewSort(q.node, keys, desc))
}

// Limit stops the query after n output rows, wherever in the chain it is written.
func (q Query) Limit(n int64) Query {
	if q.err != nil {
		return q
	}
	q.limit = n
	return q
}

// Schema returns the query's output schema (nil if the builder failed).
func (q Query) Schema() *tuple.Schema {
	if q.err != nil {
		return nil
	}
	return q.node.Schema()
}

// Compile returns the physical plan (or the first builder error), run
// through the optimizer's passes when optimize is set, and the limit left for
// the result to apply: -1 when there is none or the root Sort took it
// (plan.WithTopN).
func (q Query) Compile(optimize bool) (plan.Node, int64, error) {
	if q.err != nil {
		return nil, -1, q.err
	}
	p := q.node
	if optimize {
		p = plan.ReorderJoins(plan.Normalize(p), q.estimator().Estimate)
		p = plan.ChooseAccessPaths(plan.PruneColumns(p), q.cat)
	}
	if top, ok := plan.WithTopN(p, q.limit); ok {
		return top, -1, nil
	}
	return p, q.limit, nil
}

// Explain renders a plan compiled from q, each node annotated with rows≈N.
func (q Query) Explain(p plan.Node) string {
	est := q.estimator()
	return plan.ExplainFunc(p, func(n plan.Node) string {
		return fmt.Sprintf(" rows≈%d", est.Rows(n))
	})
}

func (q Query) estimator() *stats.Estimator { return stats.NewEstimator(q.cat.Stats) }
