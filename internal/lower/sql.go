// SQL lowering: qpipe/sql ASTs onto the builder, in the order a builder chain
// is written (Scan → Join* → Filter → GroupBy/Aggregate → Project → Sort,
// with LIMIT a property of the query).
package lower

import (
	"fmt"
	"strings"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
	"qpipe/sql"
)

// ---- UPDATE / DELETE / INSERT / CREATE TABLE lowering ------------------------

// mutationWhere opens a single-table scope for UPDATE/DELETE lowering and
// lowers the optional WHERE predicate over it to a positional expr.Pred
// (nil = all rows).
func mutationWhere(cat Catalog, table string, w sql.Pred) (*sqlScope, *tuple.Schema, expr.Pred, error) {
	schema, err := cat.Schema(table)
	if err != nil {
		return nil, nil, nil, err
	}
	scope := &sqlScope{entries: []scopeEntry{{qual: table, schema: schema}}}
	if w == nil {
		return scope, schema, nil, nil
	}
	p, err := lowerPred(scope, w)
	if err != nil {
		return nil, nil, nil, err
	}
	where, err := p.resolve(schema)
	return scope, schema, where, err
}

// Update lowers UPDATE t SET ... WHERE ... to a mutation plan node.
// Assignment expressions are evaluated against the pre-update row (standard
// SQL swap semantics: UPDATE t SET a = b, b = a exchanges the columns).
func Update(cat Catalog, u *sql.Update) (*plan.Update, error) {
	scope, schema, where, err := mutationWhere(cat, u.Table, u.Where)
	if err != nil {
		return nil, err
	}
	set := make([]plan.Assign, 0, len(u.Set))
	seen := make(map[int]bool, len(u.Set))
	for _, a := range u.Set {
		ix := schema.ColIndex(a.Column)
		if ix < 0 {
			return nil, &UnknownColumnError{Column: a.Column, Schema: schema.String()}
		}
		if seen[ix] {
			return nil, &DuplicateColumnError{Column: a.Column}
		}
		seen[ix] = true
		fe, err := lowerExpr(scope, a.Value)
		if err != nil {
			return nil, err
		}
		ee, kind, err := fe.resolve(schema)
		if err != nil {
			return nil, err
		}
		// A literal widens as INSERT's do; a computed expression must match.
		want := schema.Cols[ix].Kind
		ee = widenConst(ee, want)
		if c, ok := ee.(*expr.Const); ok {
			kind = c.V.K
		}
		if kind != want {
			return nil, &TypeMismatchError{Expr: u.Table + "." + a.Column, Left: want, Right: kind}
		}
		set = append(set, plan.Assign{Col: ix, E: ee})
	}
	return plan.NewUpdateWhere(u.Table, where, set), nil
}

// Delete lowers DELETE FROM t WHERE ... to a mutation plan node.
func Delete(cat Catalog, d *sql.Delete) (*plan.Update, error) {
	_, _, where, err := mutationWhere(cat, d.Table, d.Where)
	if err != nil {
		return nil, err
	}
	return plan.NewDelete(d.Table, where), nil
}

// TableSchema lowers CREATE TABLE's column list to a schema.
func TableSchema(ct *sql.CreateTable) *tuple.Schema {
	cols := make([]tuple.Column, len(ct.Cols))
	for i, c := range ct.Cols {
		cols[i] = tuple.Col(c.Name, typeKinds[c.Type])
	}
	return tuple.NewSchema(cols...)
}

// InsertRows materializes an INSERT's VALUES rows in schema order (for
// autocommit INSERT and INSERT inside an explicit transaction alike).
func InsertRows(cat Catalog, ins *sql.Insert) ([]tuple.Tuple, error) {
	schema, err := cat.Schema(ins.Table)
	if err != nil {
		return nil, err
	}
	// Column list: a reordering of the full schema (there are no NULLs, so
	// every column must be provided).
	perm := make([]int, schema.Len()) // row position -> schema position
	if ins.Columns == nil {
		for i := range perm {
			perm[i] = i
		}
	} else {
		if len(ins.Columns) != schema.Len() {
			return nil, &StatementError{Stmt: "INSERT", Reason: fmt.Sprintf(
				"%d columns named but %s has %d (every column must be provided; there are no NULLs)",
				len(ins.Columns), ins.Table, schema.Len())}
		}
		seen := make(map[string]bool, len(ins.Columns))
		for i, name := range ins.Columns {
			ix := schema.ColIndex(name)
			if ix < 0 {
				return nil, &UnknownColumnError{Column: name, Schema: schema.String()}
			}
			if seen[name] {
				return nil, &DuplicateColumnError{Column: name}
			}
			seen[name] = true
			perm[i] = ix
		}
	}
	rows := make([]tuple.Tuple, len(ins.Rows))
	for i, vals := range ins.Rows {
		if len(vals) != schema.Len() {
			return nil, &StatementError{Stmt: "INSERT", Reason: fmt.Sprintf(
				"VALUES row has %d values but %s has %d columns", len(vals), ins.Table, schema.Len())}
		}
		row := make(tuple.Tuple, schema.Len())
		for j, lit := range vals {
			col := schema.Cols[perm[j]]
			v, ok := litValue(lit)
			if !ok { // unreachable: the parser restricts INSERT rows to literals
				return nil, &StatementError{Stmt: "INSERT", Reason: "VALUES must be literals"}
			}
			if row[perm[j]] = widenValue(v, col.Kind); row[perm[j]].K != col.Kind {
				return nil, &TypeMismatchError{Expr: ins.Table + "." + col.Name, Left: col.Kind, Right: v.K}
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// ---- Scope: qualified-name resolution ----------------------------------------

// sqlScope maps FROM-clause tables (and aliases) to their schemas, and
// resolves column references to the bare names the builder consumes. The
// builder resolves bare names leftmost-first over the concatenated join
// schema, so the scope's job is to prove a reference is unambiguous under
// that rule — or return a typed error saying why not.
type sqlScope struct {
	entries []scopeEntry
}

type scopeEntry struct {
	qual   string // alias if given, else the table name
	schema *tuple.Schema
}

func (sc *sqlScope) add(e scopeEntry) error {
	for _, x := range sc.entries {
		if x.qual == e.qual {
			return &StatementError{Stmt: "SELECT",
				Reason: fmt.Sprintf("duplicate table name/alias %q in FROM (alias one of them)", e.qual)}
		}
	}
	sc.entries = append(sc.entries, e)
	return nil
}

// joinedSchema renders the concatenation of all entries (for error text).
func (sc *sqlScope) joinedSchema() string {
	parts := make([]string, len(sc.entries))
	for i, e := range sc.entries {
		parts[i] = e.schema.String()
	}
	return strings.Join(parts, "+")
}

// owners returns the qualifiers of every entry whose schema has the column.
func (sc *sqlScope) owners(name string) []string {
	var out []string
	for _, e := range sc.entries {
		if e.schema.ColIndex(name) >= 0 {
			out = append(out, e.qual)
		}
	}
	return out
}

// resolve checks a column reference and returns the bare name the builder
// should use.
func (sc *sqlScope) resolve(ref *sql.ColumnRef) (string, error) {
	return ref.Name, sc.checkIn(ref, 0, len(sc.entries))
}

// checkIn checks a reference against the entry subrange [lo, hi). The
// ambiguity rules apply within that range only: join-key extraction uses
// narrow ranges because a hash join resolves its left key against the
// accumulated left schema and its right key against the right scan alone.
func (sc *sqlScope) checkIn(ref *sql.ColumnRef, lo, hi int) error {
	sub := sc.entries[lo:hi]
	if ref.Table != "" {
		for i, e := range sub {
			if e.qual != ref.Table {
				continue
			}
			if e.schema.ColIndex(ref.Name) < 0 {
				return &UnknownColumnError{Column: ref.Name, Schema: e.schema.String()}
			}
			// The builder resolves the bare name leftmost-first within the
			// range: the reference is faithful only if no earlier table in
			// the range owns the name.
			for _, prev := range sub[:i] {
				if prev.schema.ColIndex(ref.Name) >= 0 {
					return &AmbiguousColumnError{Column: ref.Name, Tables: sc.owners(ref.Name)}
				}
			}
			return nil
		}
		return &UnknownTableError{Table: ref.Table}
	}
	var owners []string
	for _, e := range sub {
		if e.schema.ColIndex(ref.Name) >= 0 {
			owners = append(owners, e.qual)
		}
	}
	switch len(owners) {
	case 0:
		return &UnknownColumnError{Column: ref.Name, Schema: sc.joinedSchema()}
	case 1:
		return nil
	default:
		return &AmbiguousColumnError{Column: ref.Name, Tables: owners}
	}
}

// ---- SELECT lowering ---------------------------------------------------------

// Select lowers one SELECT onto the builder in written order.
func Select(cat Catalog, sel *sql.Select) (Query, error) {
	// 1. FROM: open the scope and scan the first table.
	scope := &sqlScope{}
	addTable := func(ref sql.TableRef) error {
		schema, err := cat.Schema(ref.Table)
		if err != nil {
			return err
		}
		qual := ref.Alias
		if qual == "" {
			qual = ref.Table
		}
		return scope.add(scopeEntry{qual: qual, schema: schema})
	}
	if err := addTable(sel.From); err != nil {
		return Query{}, err
	}
	q := Scan(cat, sel.From.Table)

	// 2. Joins. WHERE splits into conjuncts up front: comma-syntax joins
	// consume their equality conjuncts as hash-join keys, and whatever
	// remains becomes the post-join filter.
	where := splitConjuncts(sel.Where)
	var residual []sql.Pred // ON conjuncts beyond the hash-join equality
	for _, j := range sel.Joins {
		leftEnd := len(scope.entries)
		if err := addTable(j.Ref); err != nil {
			return Query{}, err
		}
		right, conj := Scan(cat, j.Ref.Table), where
		if j.On != nil {
			conj = splitConjuncts(j.On)
		}
		lc, rc, rest := scope.extractEquiKey(conj, leftEnd)
		switch {
		case lc != "":
			q = q.Join(right, lc, rc)
		case j.On != nil:
			// No usable equality: lower the whole ON as a nested-loop
			// join predicate over the concatenated schema.
			on, err := lowerPred(scope, j.On)
			if err != nil {
				return Query{}, err
			}
			q, rest = q.JoinOn(right, on), nil
		default:
			// Cross join: nested loops with an always-true predicate.
			q = q.JoinOn(right, And())
		}
		if j.On == nil {
			where = rest
		} else {
			residual = append(residual, rest...)
		}
	}

	// 3. Filter: remaining WHERE conjuncts plus ON residuals.
	filters := append(residual, where...)
	if len(filters) > 0 {
		p, err := lowerConjuncts(scope, filters)
		if err != nil {
			return Query{}, err
		}
		q = q.Filter(p)
	}

	// 4. Grouping and aggregation.
	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	// 4b/5. Grouping or projection, with ORDER BY placed where its columns
	// live: after the output stage when it names output columns, before a
	// plain projection when it names FROM columns the projection drops
	// (ORDER BY may reference underlying columns; a Project is serial and
	// order-preserving, so sorting first is equivalent).
	sortCols := make([]string, len(sel.OrderBy))
	for i, k := range sel.OrderBy {
		if k.Col.Table != "" {
			if _, err := scope.resolve(&k.Col); err != nil {
				return Query{}, err
			}
		}
		sortCols[i] = k.Col.Name
	}
	sort := func(q Query) Query {
		if len(sortCols) == 0 {
			return q
		}
		if sel.OrderBy[0].Desc {
			return q.SortDesc(sortCols...)
		}
		return q.Sort(sortCols...)
	}
	allIn := func(s *tuple.Schema, cols []string) bool {
		if s == nil {
			return false
		}
		for _, c := range cols {
			if s.ColIndex(c) < 0 {
				return false
			}
		}
		return true
	}
	var err error
	if hasAgg {
		// Aggregation collapses the scope: ORDER BY sees the grouped (and
		// possibly projected) output columns only.
		q, err = lowerAggregate(scope, q, sel)
		if err != nil {
			return Query{}, err
		}
		q = sort(q)
	} else {
		pre := q
		q, err = lowerProjection(scope, q, sel.Items)
		if err != nil {
			return Query{}, err
		}
		switch {
		case len(sortCols) == 0 || allIn(q.Schema(), sortCols):
			q = sort(q)
		case allIn(pre.Schema(), sortCols):
			q, err = lowerProjection(scope, sort(pre), sel.Items)
			if err != nil {
				return Query{}, err
			}
		default:
			q = sort(q) // let the builder report the unknown column
		}
	}
	if sel.Limit >= 0 {
		q = q.Limit(sel.Limit)
	}
	return q, nil
}

// splitConjuncts flattens a predicate into its top-level AND conjuncts.
func splitConjuncts(p sql.Pred) []sql.Pred {
	if p == nil {
		return nil
	}
	if and, ok := p.(*sql.And); ok {
		return and.Ps
	}
	return []sql.Pred{p}
}

// extractEquiKey finds the first conjunct of the form L = R where one side
// is a column of the accumulated left tables (scope entries below leftEnd)
// and the other a column of the just-added right table. It returns the two
// bare column names and the remaining conjuncts, or empty names when no
// such conjunct exists. Conjuncts mentioning tables beyond the current
// scope prefix are left untouched.
func (sc *sqlScope) extractEquiKey(conj []sql.Pred, leftEnd int) (lc, rc string, rest []sql.Pred) {
	// keySide resolves one side of a candidate equality the way the builder
	// will: against the accumulated left prefix, or against the right scan
	// alone. ok=false defers the conjunct to the post-join residue (where
	// full-scope resolution reports any real error).
	keySide := func(ref *sql.ColumnRef) (left bool, ok bool) {
		if sc.checkIn(ref, 0, leftEnd) == nil {
			return true, true
		}
		if sc.checkIn(ref, leftEnd, leftEnd+1) == nil {
			return false, true
		}
		return false, false
	}
	found := false
	for _, p := range conj {
		if !found {
			cmp, ok := p.(*sql.Compare)
			if ok && cmp.Op == "=" {
				lref, lok := cmp.L.(*sql.ColumnRef)
				rref, rok := cmp.R.(*sql.ColumnRef)
				if lok && rok {
					lLeft, lOK := keySide(lref)
					rLeft, rOK := keySide(rref)
					if lOK && rOK && lLeft != rLeft {
						if lLeft {
							lc, rc = lref.Name, rref.Name
						} else {
							lc, rc = rref.Name, lref.Name
						}
						found = true
						continue
					}
				}
			}
		}
		rest = append(rest, p)
	}
	return lc, rc, rest
}

// ---- Aggregation lowering ----------------------------------------------------

func containsAgg(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.AggCall:
		return true
	case *sql.BinaryExpr:
		return containsAgg(x.L) || containsAgg(x.R)
	}
	return false
}

// lowerAggregate lowers a grouped or scalar-aggregate SELECT. The fast path
// — every item a bare group key (in GROUP BY order, all keys, before any
// aggregate) or a bare aggregate call — maps directly onto
// GroupBy/Aggregate, matching what a builder user would write. Anything
// fancier (reordered keys, expressions over aggregates) gets a final
// Project over the grouped schema.
func lowerAggregate(scope *sqlScope, q Query, sel *sql.Select) (Query, error) {
	// Group keys, resolved through the scope.
	keys := make([]string, len(sel.GroupBy))
	keySet := make(map[string]bool, len(sel.GroupBy))
	for i := range sel.GroupBy {
		name, err := scope.resolve(&sel.GroupBy[i])
		if err != nil {
			return Query{}, err
		}
		keys[i] = name
		keySet[name] = true
	}

	// Collect distinct aggregate calls across the select list. Each is named
	// by its text in the grouped schema.
	var aggs []*sql.AggCall
	seen := make(map[string]bool)
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.AggCall:
			if canon := x.String(); !seen[canon] {
				seen[canon] = true
				aggs = append(aggs, x)
			}
		case *sql.BinaryExpr:
			collect(x.L)
			collect(x.R)
		}
	}
	for _, it := range sel.Items {
		if it.Star {
			return Query{}, &StatementError{Stmt: "SELECT",
				Reason: "* cannot be combined with GROUP BY or aggregates"}
		}
		collect(it.Expr)
	}

	// Fast path: items are exactly [group keys in order..., bare aggregates...].
	if simple, out, err := trySimpleAggShape(scope, q, sel, keys); err != nil || simple {
		return out, err
	}

	// General shape: group with internally-named aggregates, then project
	// the select items over the grouped schema (aggregate calls replaced by
	// references to their internal columns, qualified key references
	// rewritten to bare names).
	specs := make([]Agg, len(aggs))
	for i, a := range aggs {
		spec, err := lowerAgg(scope, a)
		if err != nil {
			return Query{}, err
		}
		specs[i] = spec.As(a.String())
	}
	if len(sel.GroupBy) > 0 {
		q = q.GroupBy(keys, specs...)
	} else {
		q = q.Aggregate(specs...)
	}

	// Project select items against the grouped output schema.
	groupedScope := &sqlScope{}
	items := make([]Expr, len(sel.Items))
	if outSchema := q.Schema(); outSchema != nil {
		groupedScope.entries = []scopeEntry{{qual: "", schema: outSchema}}
	}
	for i, it := range sel.Items {
		rewritten := rewriteAggRefs(it.Expr, scope, keySet)
		e, err := lowerItem(groupedScope, rewritten, it)
		if err != nil {
			return Query{}, err
		}
		items[i] = e
	}
	return q.Project(items...), nil
}

// trySimpleAggShape recognizes the direct GroupBy/Aggregate shape and emits
// it without a trailing Project. simple=false means the caller should fall
// back to the general lowering.
func trySimpleAggShape(scope *sqlScope, q Query, sel *sql.Select, keys []string) (bool, Query, error) {
	nk := len(keys)
	if len(sel.Items) < nk {
		return false, Query{}, nil
	}
	for i := 0; i < nk; i++ {
		it := sel.Items[i]
		if it.Alias != "" {
			return false, Query{}, nil
		}
		ref, ok := it.Expr.(*sql.ColumnRef)
		if !ok {
			return false, Query{}, nil
		}
		name, err := scope.resolve(ref)
		if err != nil || name != keys[i] {
			return false, Query{}, nil
		}
	}
	specs := make([]Agg, 0, len(sel.Items)-nk)
	for _, it := range sel.Items[nk:] {
		call, ok := it.Expr.(*sql.AggCall)
		if !ok {
			return false, Query{}, nil
		}
		spec, err := lowerAgg(scope, call)
		if err != nil {
			return false, Query{}, err
		}
		name := it.Alias
		if name == "" {
			name = call.String()
		}
		specs = append(specs, spec.As(name))
	}
	if nk > 0 {
		return true, q.GroupBy(keys, specs...), nil
	}
	return true, q.Aggregate(specs...), nil
}

// lowerAgg lowers one aggregate call to a builder Agg (unnamed; the caller
// applies As). COUNT(expr) lowers to COUNT(*) — there are no NULLs, so the
// counts are identical.
func lowerAgg(scope *sqlScope, call *sql.AggCall) (Agg, error) {
	if call.Func == "count" {
		return Count(), nil
	}
	arg, err := lowerExpr(scope, call.Arg)
	if err != nil {
		return Agg{}, err
	}
	switch call.Func {
	case "sum":
		return Sum(arg), nil
	case "avg":
		return Avg(arg), nil
	case "min":
		return Min(arg), nil
	default: // "max" — the parser admits no other function names
		return Max(arg), nil
	}
}

// rewriteAggRefs replaces aggregate calls with references to their grouped
// output columns, and strips the table qualifier from any reference that
// resolves (in the FROM scope) to a group key — the grouped schema carries
// bare names only, however the key was spelled in GROUP BY.
func rewriteAggRefs(e sql.Expr, scope *sqlScope, keySet map[string]bool) sql.Expr {
	switch x := e.(type) {
	case *sql.AggCall:
		return &sql.ColumnRef{Name: x.String()}
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, L: rewriteAggRefs(x.L, scope, keySet), R: rewriteAggRefs(x.R, scope, keySet)}
	case *sql.ColumnRef:
		if x.Table != "" && keySet[x.Name] {
			if _, err := scope.resolve(x); err == nil {
				return &sql.ColumnRef{Name: x.Name, Pos: x.Pos}
			}
		}
		return x
	default:
		return e
	}
}

// ---- Projection lowering -----------------------------------------------------

// lowerProjection lowers a non-aggregate select list. A lone '*' keeps the
// input schema (no Project node, like the builder).
func lowerProjection(scope *sqlScope, q Query, items []sql.SelectItem) (Query, error) {
	if len(items) == 1 && items[0].Star {
		return q, nil
	}
	exprs := make([]Expr, len(items))
	for i, it := range items {
		if it.Star {
			return Query{}, &StatementError{Stmt: "SELECT",
				Reason: "* cannot be combined with other select items"}
		}
		e, err := lowerItem(scope, it.Expr, it)
		if err != nil {
			return Query{}, err
		}
		exprs[i] = e
	}
	return q.Project(exprs...), nil
}

// lowerItem lowers e, the (possibly rewritten) expression of select item it,
// named by the item's alias or, unaliased, by the default output name: the
// bare column name for references, the call's text for an aggregate, nothing
// (positional fallback) for computed expressions.
func lowerItem(scope *sqlScope, e sql.Expr, it sql.SelectItem) (Expr, error) {
	out, err := lowerExpr(scope, e)
	if err != nil {
		return Expr{}, err
	}
	switch x := it.Expr.(type) {
	case *sql.ColumnRef:
		out = out.As(x.Name)
	case *sql.AggCall:
		out = out.As(x.String())
	}
	if it.Alias != "" {
		out = out.As(it.Alias)
	}
	return out, nil
}

// ---- Expression / predicate lowering -----------------------------------------

// litValue extracts a literal's Value (ok=false for non-literals).
func litValue(e sql.Expr) (tuple.Value, bool) {
	switch x := e.(type) {
	case *sql.IntLit:
		return tuple.I64(x.V), true
	case *sql.FloatLit:
		return tuple.F64(x.V), true
	case *sql.StringLit:
		return tuple.Str(x.V), true
	case *sql.DateLit:
		return tuple.Date(x.Days), true
	}
	return tuple.Value{}, false
}

// The operators and the normalized type names the parser emits, by their
// spelling.
var (
	typeKinds = map[string]tuple.Kind{"INT": tuple.KindInt, "FLOAT": tuple.KindFloat,
		"DATE": tuple.KindDate, "TEXT": tuple.KindString}
	arithOps = map[byte]expr.ArithOp{'+': expr.OpAdd, '-': expr.OpSub, '*': expr.OpMul, '/': expr.OpDiv}
	cmpOps   = map[string]expr.CmpOp{"=": expr.CmpEQ, "<>": expr.CmpNE, "<": expr.CmpLT,
		"<=": expr.CmpLE, ">": expr.CmpGT, ">=": expr.CmpGE}
)

func lowerExpr(scope *sqlScope, e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		name, err := scope.resolve(x)
		if err != nil {
			return Expr{}, err
		}
		return Col(name), nil
	case *sql.BinaryExpr:
		l, err := lowerExpr(scope, x.L)
		if err != nil {
			return Expr{}, err
		}
		r, err := lowerExpr(scope, x.R)
		if err != nil {
			return Expr{}, err
		}
		return arith(arithOps[x.Op], l, r), nil
	case *sql.AggCall:
		return Expr{}, &StatementError{Stmt: "SELECT",
			Reason: fmt.Sprintf("aggregate %s is not valid here", x)}
	}
	if v, ok := litValue(e); ok {
		return Lit(v), nil
	}
	return Expr{}, &StatementError{Stmt: "SELECT", Reason: fmt.Sprintf("unsupported expression %s", e)}
}

func lowerConjuncts(scope *sqlScope, ps []sql.Pred) (Pred, error) {
	if len(ps) == 1 {
		return lowerPred(scope, ps[0])
	}
	return lowerNary(scope, ps, And)
}

func lowerPred(scope *sqlScope, p sql.Pred) (Pred, error) {
	switch x := p.(type) {
	case *sql.Compare:
		l, err := lowerExpr(scope, x.L)
		if err != nil {
			return Pred{}, err
		}
		r, err := lowerExpr(scope, x.R)
		if err != nil {
			return Pred{}, err
		}
		return cmpPred(cmpOps[x.Op], l, r), nil
	case *sql.And:
		return lowerNary(scope, x.Ps, And)
	case *sql.Or:
		return lowerNary(scope, x.Ps, Or)
	case *sql.Not:
		inner, err := lowerPred(scope, x.P)
		if err != nil {
			return Pred{}, err
		}
		return Not(inner), nil
	case *sql.InPred:
		e, err := lowerExpr(scope, x.E)
		if err != nil {
			return Pred{}, err
		}
		vals := make([]tuple.Value, len(x.Vals))
		for i, ve := range x.Vals {
			v, ok := litValue(ve)
			if !ok { // unreachable: the parser restricts IN lists to literals
				return Pred{}, &StatementError{Stmt: "SELECT", Reason: "IN values must be literals"}
			}
			vals[i] = v
		}
		in := e.In(vals...)
		if x.Neg {
			return Not(in), nil
		}
		return in, nil
	case *sql.BetweenPred:
		e, err := lowerExpr(scope, x.E)
		if err != nil {
			return Pred{}, err
		}
		lo, lok := litValue(x.Lo)
		hi, hok := litValue(x.Hi)
		var btw Pred
		if lok && hok {
			btw = e.Between(lo, hi)
		} else {
			// Non-literal bounds lower to the equivalent conjunction.
			loE, err := lowerExpr(scope, x.Lo)
			if err != nil {
				return Pred{}, err
			}
			hiE, err := lowerExpr(scope, x.Hi)
			if err != nil {
				return Pred{}, err
			}
			btw = And(loE.Le(e), e.Le(hiE))
		}
		if x.Neg {
			return Not(btw), nil
		}
		return btw, nil
	default:
		return Pred{}, &StatementError{Stmt: "SELECT", Reason: fmt.Sprintf("unsupported predicate %s", p)}
	}
}

func lowerNary(scope *sqlScope, ps []sql.Pred, combine func(...Pred) Pred) (Pred, error) {
	subs := make([]Pred, len(ps))
	for i, p := range ps {
		lp, err := lowerPred(scope, p)
		if err != nil {
			return Pred{}, err
		}
		subs[i] = lp
	}
	return combine(subs...), nil
}
