// Schema-aware fluent query builder: the public way to construct plans.
// Column references are by NAME and resolve against the catalog at the
// builder call that introduces them, so an unknown column, a type-mismatched
// predicate or a duplicate output name surfaces as a typed error from
// Plan/Run — never as a positional-index panic inside a µEngine. The
// positional plan layer (qpipe/internal/plan) stays the engine's input
// format; the builder is a thin resolving front end over it.
//
//	res, err := db.Scan("cities").
//		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
//		Project(qpipe.Col("city"), qpipe.Col("pop").Mul(qpipe.Float(1e6)).As("population")).
//		Run(ctx)
package qpipe

import (
	"context"
	"fmt"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// Plan is a compiled physical plan — the engine's input format. Builders
// and the SQL front end produce plans; Query.Plan returns one for
// inspection. Embedders never construct plans directly.
type Plan = plan.Node

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
	name  string // eCol
	val   Value  // eLit
	op    expr.ArithOp
	l, r  *Expr
	alias string
}

// Col references an input column by name.
func Col(name string) Expr { return Expr{kind: eCol, name: name} }

// Int is an integer literal expression.
func Int(v int64) Expr { return Expr{kind: eLit, val: IntValue(v)} }

// Float is a float literal expression.
func Float(v float64) Expr { return Expr{kind: eLit, val: FloatValue(v)} }

// String is a string literal expression.
func String(v string) Expr { return Expr{kind: eLit, val: StringValue(v)} }

// Date is a date literal expression (days since 1970-01-01).
func Date(days int64) Expr { return Expr{kind: eLit, val: DateValue(days)} }

// Lit lifts a Value into a literal expression.
func Lit(v Value) Expr { return Expr{kind: eLit, val: v} }

func arith(op expr.ArithOp, l, r Expr) Expr {
	return Expr{kind: eArith, op: op, l: &l, r: &r}
}

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
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindDate
}

// compatibleKinds reports whether two kinds may meet in a comparison or
// arithmetic node. KindInvalid marks intermediate columns whose kind is
// unknown at build time (projection outputs) and is compatible with
// anything.
func compatibleKinds(a, b Kind) bool {
	if a == 0 || b == 0 { // KindInvalid
		return true
	}
	if numericKind(a) && numericKind(b) {
		return true
	}
	return a == b
}

// widenValue losslessly converts an integer literal to the kind of the
// column it compares against (float or date), so the literal renders in one
// canonical form — `amount > 30` and `amount > 30.0` must produce the same
// Signature() for OSP to match them.
func widenValue(v Value, to Kind) Value {
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
func widenConst(e expr.Expr, other Kind) expr.Expr {
	if c, ok := e.(*expr.Const); ok {
		if w := widenValue(c.V, other); w.K != c.V.K {
			return &expr.Const{V: w}
		}
	}
	return e
}

// resolve lowers the expression against a schema, returning the positional
// expression and its result kind.
func (e Expr) resolve(s *Schema) (expr.Expr, Kind, error) {
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
		if !compatibleKinds(lk, rk) || lk == KindString || rk == KindString {
			return nil, 0, &TypeMismatchError{Expr: e.String(), Left: lk, Right: rk}
		}
		out := KindFloat
		if lk == KindInt && rk == KindInt && e.op != expr.OpDiv {
			out = KindInt
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
	vals   []Value
	lo, hi Value
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
func (e Expr) In(vals ...Value) Pred { return Pred{kind: pIn, l: &e, vals: vals} }

// Between is the inclusive range predicate lo <= e <= hi.
func (e Expr) Between(lo, hi Value) Pred { return Pred{kind: pBetween, l: &e, lo: lo, hi: hi} }

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
func (p Pred) resolve(s *Schema) (expr.Pred, error) {
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
		vals := make([]Value, len(p.vals))
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
		if !compatibleKinds(lk, p.lo.K) {
			return nil, &TypeMismatchError{Expr: p.l.String() + " BETWEEN", Left: lk, Right: p.lo.K}
		}
		if !compatibleKinds(lk, p.hi.K) {
			return nil, &TypeMismatchError{Expr: p.l.String() + " BETWEEN", Left: lk, Right: p.hi.K}
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
func (a Agg) resolve(s *Schema) (expr.AggSpec, error) {
	spec := expr.AggSpec{Kind: a.kind, Name: a.name}
	if a.arg != nil {
		ae, ak, err := a.arg.resolve(s)
		if err != nil {
			return spec, err
		}
		if a.kind != expr.AggMin && a.kind != expr.AggMax && ak == KindString {
			return spec, &TypeMismatchError{Expr: a.kind.String() + "(" + a.arg.String() + ")", Left: ak, Right: KindFloat}
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

// Query is an immutable builder over a partially-constructed plan. Each
// method returns a new Query; the first resolution error sticks and is
// returned by Plan/Explain/Run. A Query is cheap to copy and reusable: two
// chains branching from one prefix share the already-built subtree, which
// OSP then deduplicates at run time.
type Query struct {
	db   *DB
	node plan.Node
	err  error
	// limit < 0 means no limit. A plan whose root is a Sort takes the limit
	// into the plan as a Top-N (see compile); for every other root the Result
	// applies it (the engine streams, the result stops the query once n rows
	// are out).
	limit int64
}

// Scan starts a query reading every row of a table.
func (db *DB) Scan(table string) *Query {
	t, err := db.mgr.Table(table)
	if err != nil {
		return &Query{db: db, err: &UnknownTableError{Table: table}, limit: -1}
	}
	return &Query{db: db, node: plan.NewTableScan(table, t.Schema, nil, nil, false), limit: -1}
}

// ScanIndex starts a query reading a table through the B+tree index on col,
// restricted to lo <= col <= hi (zero Values leave the bound open). The
// clustered index is used when col is the clustered key, an unclustered
// index otherwise; ordered delivery follows the index.
func (db *DB) ScanIndex(table, col string, lo, hi Value) *Query {
	t, err := db.mgr.Table(table)
	if err != nil {
		return &Query{db: db, err: &UnknownTableError{Table: table}, limit: -1}
	}
	if t.Schema.ColIndex(col) < 0 {
		return &Query{db: db, err: &UnknownColumnError{Column: col, Schema: t.Schema.String()}, limit: -1}
	}
	clustered := t.Clustered != nil && t.ClusteredKey == col
	if !clustered {
		if _, ok := t.Unclustered[col]; !ok {
			return &Query{db: db, err: &NoIndexError{Table: table, Column: col}, limit: -1}
		}
	}
	return &Query{db: db,
		node:  plan.NewIndexScan(table, t.Schema, col, lo, hi, clustered, clustered, nil, nil),
		limit: -1}
}

// NoIndexError reports a ScanIndex over a column with no built index.
type NoIndexError struct {
	Table, Column string
}

// Error implements error.
func (e *NoIndexError) Error() string {
	return fmt.Sprintf("qpipe: no index on %s.%s (CreateIndex first)", e.Table, e.Column)
}

func (q *Query) fail(err error) *Query {
	return &Query{db: q.db, err: err, limit: -1}
}

func (q *Query) with(node plan.Node) *Query {
	return &Query{db: q.db, node: node, limit: q.limit}
}

// Filter keeps rows satisfying the predicate.
func (q *Query) Filter(p Pred) *Query {
	if q.err != nil {
		return q
	}
	rp, err := p.resolve(q.node.Schema())
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewFilter(q.node, rp))
}

// Project computes the given expressions as the output columns. Output
// names come from As aliases (or the column's own name for plain
// references); duplicates are a DuplicateColumnError.
func (q *Query) Project(exprs ...Expr) *Query {
	if q.err != nil {
		return q
	}
	in := q.node.Schema()
	res := make([]expr.Expr, len(exprs))
	kinds := make([]Kind, len(exprs))
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

// Select keeps only the named columns (in the given order) — sugar for a
// Project of plain column references.
func (q *Query) Select(cols ...string) *Query {
	exprs := make([]Expr, len(cols))
	for i, c := range cols {
		exprs[i] = Col(c)
	}
	return q.Project(exprs...)
}

// resolveJoinKeys resolves one equi-join's key columns and checks they are
// comparable.
func (q *Query) resolveJoinKeys(r *Query, leftCol, rightCol string) (lk, rk int, err error) {
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

func (q *Query) joinPre(r *Query) error {
	if q.err != nil {
		return q.err
	}
	if r.err != nil {
		return r.err
	}
	if r.db != q.db {
		return fmt.Errorf("qpipe: joined queries must come from the same DB")
	}
	return nil
}

// Join hash-joins q (build side) with r (probe side) on leftCol = rightCol.
// The output schema is q's columns followed by r's. The sides are as written
// only under DisableOptimizer: otherwise joins over scans are ordered by
// estimated size, like their SQL spelling (see Plan).
func (q *Query) Join(r *Query, leftCol, rightCol string) *Query {
	if err := q.joinPre(r); err != nil {
		return q.fail(err)
	}
	lk, rk, err := q.resolveJoinKeys(r, leftCol, rightCol)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewHashJoin(q.node, r.node, lk, rk))
}

// MergeJoin merge-joins q with r on leftCol = rightCol. Both inputs must
// already be ordered on their key (a Sort step, or a clustered ScanIndex on
// the key column).
func (q *Query) MergeJoin(r *Query, leftCol, rightCol string) *Query {
	if err := q.joinPre(r); err != nil {
		return q.fail(err)
	}
	lk, rk, err := q.resolveJoinKeys(r, leftCol, rightCol)
	if err != nil {
		return q.fail(err)
	}
	return q.with(plan.NewMergeJoin(q.node, r.node, lk, rk, false))
}

// JoinOn nested-loop joins q (outer) with r on an arbitrary predicate over
// the concatenated row (columns of q first, then r's; names shared by both
// sides resolve to q's column). The order is Join's.
func (q *Query) JoinOn(r *Query, on Pred) *Query {
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

// GroupBy hash-groups on the key columns and computes the aggregates per
// group. Output columns are the keys followed by the aggregates.
func (q *Query) GroupBy(keys []string, aggs ...Agg) *Query {
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
	specs := make([]expr.AggSpec, len(aggs))
	for i, a := range aggs {
		spec, err := a.resolve(in)
		if err != nil {
			return q.fail(err)
		}
		specs[i] = spec
		n := a.outName()
		if seen[n] {
			return q.fail(&DuplicateColumnError{Column: n})
		}
		seen[n] = true
	}
	return q.with(plan.NewGroupBy(q.node, kix, specs))
}

// Aggregate computes scalar aggregates over the whole input, emitting one
// row.
func (q *Query) Aggregate(aggs ...Agg) *Query {
	if q.err != nil {
		return q
	}
	in := q.node.Schema()
	specs := make([]expr.AggSpec, len(aggs))
	seen := make(map[string]bool, len(aggs))
	for i, a := range aggs {
		spec, err := a.resolve(in)
		if err != nil {
			return q.fail(err)
		}
		specs[i] = spec
		n := a.outName()
		if seen[n] {
			return q.fail(&DuplicateColumnError{Column: n})
		}
		seen[n] = true
	}
	return q.with(plan.NewAggregate(q.node, specs))
}

// Sort orders the output ascending on the named columns.
func (q *Query) Sort(cols ...string) *Query { return q.sort(false, cols) }

// SortDesc orders the output descending on the named columns.
func (q *Query) SortDesc(cols ...string) *Query { return q.sort(true, cols) }

func (q *Query) sort(desc bool, cols []string) *Query {
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

// Limit stops the query after n output rows. It is a property of the whole
// query, wherever in the chain it is written. When the finished plan's root
// is a Sort and n is at most what one in-memory sort run holds, the limit
// moves into the plan — the Sort becomes a Top-N keeping n rows, and n is
// part of its signature, so two such queries share the sort only when their
// limits are equal (their scans below still share). For every other plan
// the Result delivers n rows, then cancels the remaining upstream work,
// and the plan's signature is that of the unlimited query.
func (q *Query) Limit(n int64) *Query {
	if q.err != nil {
		return q
	}
	out := q.with(q.node)
	out.limit = n
	return out
}

// Plan compiles the query, returning the physical plan (or the first
// builder error). Unless the DB was opened with DisableOptimizer, the plan
// is normalized first — predicates canonicalized and pushed into scans —
// so equivalent queries converge on one Signature() and share work under
// OSP; joins over scans are ordered by the estimates EXPLAIN prints
// (plan.ReorderJoins); every scan is projected to the columns the plan
// above it reads (plan.PruneColumns, which also drops a Select the scan has
// made redundant), and gets its access path: an index scan where the
// statistics say a B+tree reads fewer pages than the heap
// (plan.ChooseAccessPaths; a ScanIndex stays the path it names). Last, a
// limit the root Sort can hold makes it a Top-N (see Limit). Both front ends
// (this builder and db.Query SQL) funnel through here, which is what keeps
// their plans byte-identical.
func (q *Query) Plan() (Plan, error) {
	p, _, err := q.compile()
	return p, err
}

// compile is Plan plus the limit left for the Result to apply: -1 when the
// query has none or the finished plan's root Sort took it (plan.WithTopN).
func (q *Query) compile() (Plan, int64, error) {
	if q.err != nil {
		return nil, -1, q.err
	}
	p := q.node
	switch {
	case q.db == nil:
		p = plan.Normalize(p)
	case !q.db.noOpt:
		p = plan.ReorderJoins(plan.Normalize(p), q.db.estimator().Estimate)
		p = plan.ChooseAccessPaths(plan.PruneColumns(p), accessCatalog{q.db})
	}
	if top, ok := plan.WithTopN(p, q.limit); ok {
		return top, -1, nil
	}
	return p, q.limit, nil
}

// Schema returns the query's output schema (nil if the builder failed).
func (q *Query) Schema() *Schema {
	if q.err != nil {
		return nil
	}
	return q.node.Schema()
}

// Explain renders the compiled plan as an indented operator tree, each
// node annotated with the statistics-based cardinality estimate (rows≈N).
func (q *Query) Explain() (string, error) {
	p, err := q.Plan()
	if err != nil {
		return "", err
	}
	return q.explain(p), nil
}

func (q *Query) explain(p Plan) string {
	if q.db == nil {
		return plan.Explain(p)
	}
	est := q.db.estimator()
	return plan.ExplainFunc(p, func(n plan.Node) string {
		return fmt.Sprintf(" rows≈%d", est.Rows(n))
	})
}

// Run submits the query for execution with the given per-query options and
// returns a streaming Result. The caller must consume it (Rows, All,
// Discard) or Cancel it.
func (q *Query) Run(ctx context.Context, opts ...QueryOption) (*Result, error) {
	return q.runIn(ctx, nil, opts)
}

// runIn is Run under a session (Session.resolve); a nil sess is Run.
func (q *Query) runIn(ctx context.Context, sess *Session, opts []QueryOption) (*Result, error) {
	p, limit, err := q.compile()
	if err != nil {
		return nil, err
	}
	o, err := sess.resolve(opts)
	if err != nil {
		return nil, err
	}
	return q.db.run(ctx, p, limit, o)
}
