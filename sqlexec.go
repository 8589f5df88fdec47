// SQL execution: the planner that lowers qpipe/sql ASTs onto the
// schema-aware builder, the DB entry points Query, QuerySession, Exec,
// ExecSession and Prepare, and runStmt, the statement router they share.
//
// The lowering is deliberately thin — every SQL SELECT becomes exactly the
// plan the equivalent fluent-builder chain would produce (Scan → Join* →
// Filter → GroupBy/Aggregate → Project → Sort, with LIMIT a property of the
// query that Query.Plan turns into a Top-N when the root is a Sort),
// so EXPLAIN over SQL and Explain on a builder query print the same tree,
// and OSP sees identical signatures for identical queries regardless of
// which front end posed them. Semantic mistakes surface as the same typed
// errors the builder returns (UnknownTableError, UnknownColumnError,
// TypeMismatchError, ...); syntax mistakes are position-annotated
// *sql.ParseError values.
package qpipe

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qpipe/internal/expr"
	"qpipe/internal/ops"
	"qpipe/internal/plan"
	"qpipe/sql"
)

// ---- Public entry points -----------------------------------------------------

// Query parses and executes one SQL statement that produces rows: a SELECT
// (returning its streaming Result) or an EXPLAIN (returning the lowered
// physical plan as rows of a single "plan" text column, annotated with any
// non-default per-query options). Other statements are a *StatementError —
// use Exec for DDL and INSERT, and a Session for SET. The per-query options
// apply exactly as on Query.Run.
func (db *DB) Query(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	return db.QuerySession(ctx, nil, text, opts...)
}

// QuerySession is Query under a session: its settings apply before opts (so
// opts win), a SET folds into it and returns an empty Result, and inside its
// open transaction a SELECT of a table the transaction has written is a
// *TxConflictError rather than a wait on the session's own lock. A nil
// sess is Query.
func (db *DB) QuerySession(ctx context.Context, sess *Session, text string, opts ...QueryOption) (*Result, error) {
	stmt, err := sql.Parse(text)
	if err == nil {
		err = queryKind(stmt)
	}
	if err != nil {
		return nil, err
	}
	res, _, err := db.runStmt(ctx, sess, stmt, opts)
	if res == nil && err == nil {
		res = newRowsResult(nil, NewSchema())
	}
	return res, err
}

// Exec parses and executes a SQL script of statements that do not return
// rows: CREATE TABLE, CREATE INDEX, INSERT ... VALUES, UPDATE, DELETE and
// ANALYZE (';'-separated; a single statement is a script of one). It
// returns the total number of rows affected. Each mutation autocommits;
// for multi-statement transactions use db.Begin or ExecSession.
// SELECT/EXPLAIN are a *StatementError (use Query), as are SET and
// BEGIN/COMMIT/ROLLBACK (session statements belong to a qpipe.Session).
func (db *DB) Exec(ctx context.Context, text string) (int64, error) {
	return db.ExecSession(ctx, nil, text)
}

// queryKind and execKind are the entry points' kind checks: what Query
// and Exec refuse before the router runs a statement.
func queryKind(stmt sql.Statement) error {
	switch stmt.(type) {
	case *sql.Select, *sql.Explain, *sql.Set:
		return nil
	}
	return &StatementError{Stmt: statementName(stmt), Reason: "does not return rows; use Exec"}
}

func execKind(stmt sql.Statement) error {
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		return &StatementError{Stmt: statementName(stmt), Reason: "returns rows; use Query"}
	}
	return nil
}

// script parses a script and runs its statements in order through the
// router, each after check; it returns the rows their mutations affected.
func (db *DB) script(ctx context.Context, sess *Session, text string, check func(sql.Statement) error) (int64, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, stmt := range stmts {
		if err := check(stmt); err != nil {
			return affected, err
		}
		_, n, err := db.runStmt(ctx, sess, stmt, nil)
		if err != nil {
			return affected, err
		}
		affected += n
	}
	return affected, nil
}

// runStmt is the statement router: every SQL front end executes its
// statements here, and nowhere else does a switch over statement kinds run
// one. The session's settings apply before opts. A nil sess is the
// sessionless DB surface, to which SET and transaction control are a
// *StatementError. Inside the session's open transaction INSERT, UPDATE and
// DELETE stage, DDL is refused, and a SELECT is guarded against the
// transaction's own locks. SELECT and EXPLAIN return a Result, mutations
// the rows they affected.
func (db *DB) runStmt(ctx context.Context, sess *Session, stmt sql.Statement, opts []QueryOption) (*Result, int64, error) {
	var tx *Tx
	if sess != nil {
		tx = sess.tx
	}
	o, err := sess.resolve(opts)
	if err != nil {
		return nil, 0, err
	}
	switch stmt.(type) {
	case *sql.CreateTable, *sql.CreateIndex, *sql.Analyze:
		if tx != nil {
			return nil, 0, txKind(stmt)
		}
	}
	switch s := stmt.(type) {
	case *sql.Select:
		q, err := db.lowerSelect(s)
		if err == nil {
			err = tx.guard(q)
		}
		if err != nil {
			return nil, 0, err
		}
		p, limit, err := q.compile()
		if err != nil {
			return nil, 0, err
		}
		res, err := db.run(ctx, p, limit, o)
		return res, 0, err
	case *sql.Explain:
		res, err := db.explainSelect(s.Stmt, o)
		return res, 0, err
	case *sql.Set:
		if sess == nil {
			return nil, 0, &StatementError{Stmt: "SET",
				Reason: "session statement — apply it to a qpipe.Session (the shell does this)"}
		}
		return nil, 0, sess.Apply(s)
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		name := statementName(stmt)
		switch {
		case sess == nil:
			return nil, 0, &StatementError{Stmt: name,
				Reason: "transaction statement — use db.Begin, or ExecSession with a qpipe.Session"}
		case (tx != nil) == (name == "BEGIN"):
			return nil, 0, &TxStateError{Stmt: name, Open: tx != nil}
		case name == "BEGIN":
			sess.tx = db.Begin()
		case name == "COMMIT":
			sess.tx = nil
			return nil, 0, tx.Commit(ctx)
		default:
			sess.Close()
		}
		return nil, 0, nil
	case *sql.Insert:
		schema, err := db.Schema(s.Table)
		if err != nil {
			return nil, 0, err
		}
		rows, err := buildInsertRows(schema, s)
		if err == nil && tx != nil {
			err = tx.Insert(ctx, s.Table, rows...)
		} else if err == nil {
			err = db.insert(ctx, s.Table, rows, o)
		}
		if err != nil {
			return nil, 0, err
		}
		return nil, int64(len(rows)), nil
	case *sql.Update:
		node, err := db.compileUpdate(s)
		if err != nil {
			return nil, 0, err
		}
		n, err := db.execMutation(ctx, tx, node, o)
		return nil, n, err
	case *sql.Delete:
		node, err := db.compileDelete(s)
		if err != nil {
			return nil, 0, err
		}
		n, err := db.execMutation(ctx, tx, node, o)
		return nil, n, err
	case *sql.CreateTable:
		cols := make([]Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = ColDef(c.Name, sqlKind(c.Type))
		}
		return nil, 0, db.CreateTable(s.Name, NewSchema(cols...))
	case *sql.CreateIndex:
		return nil, 0, db.CreateIndex(s.Table, s.Column, s.Clustered)
	case *sql.Analyze:
		return nil, 0, db.Analyze(s.Table)
	default:
		return nil, 0, &StatementError{Stmt: statementName(stmt), Reason: "unsupported statement"}
	}
}

// Prepare parses a SQL SELECT and compiles it to a reusable builder Query —
// the same immutable value a fluent chain produces, so it can be Run many
// times, Explain-ed, or combined into RunBatch with builder-built queries.
func (db *DB) Prepare(text string) (*Query, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, &StatementError{Stmt: statementName(stmt), Reason: "only SELECT can be prepared"}
	}
	return db.lowerSelect(sel)
}

// explainSelect compiles the SELECT and materializes its plan text (plus an
// options annotation) as a one-column result.
func (db *DB) explainSelect(sel *sql.Select, o queryOpts) (*Result, error) {
	q, err := db.lowerSelect(sel)
	if err != nil {
		return nil, err
	}
	p, limit, err := q.compile()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(q.explain(p), "\n"), "\n")
	if ann := annotateOpts(o); ann != "" {
		lines = append(lines, ann)
	}
	if limit >= 0 {
		lines = append(lines, fmt.Sprintf("limit: %d (result-level)", limit))
	}
	rows := make([]Row, len(lines))
	for i, l := range lines {
		rows[i] = Row{StringValue(l)}
	}
	return newRowsResult(rows, NewSchema(ColDef("plan", KindString))), nil
}

// annotateOpts renders the non-default per-query options an EXPLAIN ran
// with, so the printed plan states how it would execute.
func annotateOpts(o queryOpts) string {
	var parts []string
	if o.core.Parallelism > 0 {
		parts = append(parts, fmt.Sprintf("parallelism=%d", o.core.Parallelism))
	}
	if o.core.BatchSize > 0 {
		parts = append(parts, fmt.Sprintf("batch_size=%d", o.core.BatchSize))
	}
	if o.core.DisableOSP {
		parts = append(parts, "osp=off")
	}
	if len(parts) == 0 {
		return ""
	}
	return "options: " + strings.Join(parts, " ")
}

func statementName(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.Select:
		return "SELECT"
	case *sql.Explain:
		return "EXPLAIN"
	case *sql.CreateTable:
		return "CREATE TABLE"
	case *sql.CreateIndex:
		return "CREATE INDEX"
	case *sql.Insert:
		return "INSERT"
	case *sql.Analyze:
		return "ANALYZE"
	case *sql.Set:
		return "SET"
	case *sql.Update:
		return "UPDATE"
	case *sql.Delete:
		return "DELETE"
	case *sql.Begin:
		return "BEGIN"
	case *sql.Commit:
		return "COMMIT"
	case *sql.Rollback:
		return "ROLLBACK"
	default:
		return "statement"
	}
}

// ---- UPDATE / DELETE lowering --------------------------------------------------

// mutationWhere opens a single-table scope for UPDATE/DELETE lowering and
// lowers the optional WHERE predicate over it to a positional expr.Pred
// (nil = all rows).
func (db *DB) mutationWhere(table string, w sql.Pred) (*sqlScope, *Schema, expr.Pred, error) {
	schema, err := db.Schema(table)
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

// compileUpdate lowers UPDATE t SET ... WHERE ... to a mutation plan node.
// Assignment expressions are evaluated against the pre-update row (standard
// SQL swap semantics: UPDATE t SET a = b, b = a exchanges the columns).
func (db *DB) compileUpdate(u *sql.Update) (*plan.Update, error) {
	scope, schema, where, err := db.mutationWhere(u.Table, u.Where)
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
		want := schema.Cols[ix].Kind
		if kind != want {
			// Literal constants widen losslessly (int into float/date
			// columns), mirroring INSERT; computed expressions must match.
			ee = widenConst(ee, want)
			if c, ok := ee.(*expr.Const); ok && c.V.K == want {
				kind = want
			}
		}
		if kind != want {
			return nil, &TypeMismatchError{Expr: u.Table + "." + a.Column, Left: want, Right: kind}
		}
		set = append(set, plan.Assign{Col: ix, E: ee})
	}
	return plan.NewUpdateWhere(u.Table, where, set), nil
}

// compileDelete lowers DELETE FROM t WHERE ... to a mutation plan node.
func (db *DB) compileDelete(d *sql.Delete) (*plan.Update, error) {
	_, _, where, err := db.mutationWhere(d.Table, d.Where)
	if err != nil {
		return nil, err
	}
	return plan.NewDelete(d.Table, where), nil
}

// execMutation stages an UPDATE/DELETE plan into tx, or outside one runs it
// through the update µEngine (which wraps it in an autocommit transaction),
// and returns the affected-row count.
func (db *DB) execMutation(ctx context.Context, tx *Tx, node *plan.Update, o queryOpts) (int64, error) {
	if tx != nil {
		return ops.StageMutation(ctx, tx.tx, node)
	}
	res, err := db.run(ctx, node, -1, o)
	if err != nil {
		return 0, err
	}
	rows, err := res.All()
	if err != nil {
		return 0, err
	}
	var n int64
	if len(rows) == 1 && len(rows[0]) == 1 {
		n = rows[0][0].I
	}
	return n, nil
}

// sqlKind maps a normalized SQL type name to a column kind.
func sqlKind(t string) Kind {
	switch t {
	case "INT":
		return KindInt
	case "FLOAT":
		return KindFloat
	case "DATE":
		return KindDate
	default: // "TEXT" — the parser only emits the four normalized names
		return KindString
	}
}

// buildInsertRows materializes an INSERT's VALUES rows in schema order
// (for autocommit INSERT and INSERT inside an explicit transaction alike).
func buildInsertRows(schema *Schema, ins *sql.Insert) ([]Row, error) {
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
	rows := make([]Row, len(ins.Rows))
	for i, vals := range ins.Rows {
		if len(vals) != schema.Len() {
			return nil, &StatementError{Stmt: "INSERT", Reason: fmt.Sprintf(
				"VALUES row has %d values but %s has %d columns", len(vals), ins.Table, schema.Len())}
		}
		row := make(Row, schema.Len())
		for j, lit := range vals {
			col := schema.Cols[perm[j]]
			v, ok := litValue(lit)
			if !ok { // unreachable: the parser restricts INSERT rows to literals
				return nil, &StatementError{Stmt: "INSERT", Reason: "VALUES must be literals"}
			}
			cv, err := coerceValue(v, col.Kind, ins.Table+"."+col.Name)
			if err != nil {
				return nil, err
			}
			row[perm[j]] = cv
		}
		rows[i] = row
	}
	return rows, nil
}

// coerceValue widens a literal to the column kind where lossless (int
// literals into float and date columns); anything else mismatched is a
// typed error.
func coerceValue(v Value, want Kind, where string) (Value, error) {
	if v.K == want {
		return v, nil
	}
	if v.K == KindInt && want == KindFloat {
		return FloatValue(float64(v.I)), nil
	}
	if v.K == KindInt && want == KindDate {
		return DateValue(v.I), nil
	}
	return Value{}, &TypeMismatchError{Expr: where, Left: want, Right: v.K}
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
	schema *Schema
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
	_, err := sc.entryOfIn(ref, 0, len(sc.entries))
	return ref.Name, err
}

// entryOfIn resolves a reference against the entry subrange [lo, hi). The
// ambiguity rules apply within that range only: join-key extraction uses
// narrow ranges because a hash join resolves its left key against the
// accumulated left schema and its right key against the right scan alone.
func (sc *sqlScope) entryOfIn(ref *sql.ColumnRef, lo, hi int) (int, error) {
	sub := sc.entries[lo:hi]
	if ref.Table != "" {
		for i, e := range sub {
			if e.qual != ref.Table {
				continue
			}
			if e.schema.ColIndex(ref.Name) < 0 {
				return 0, &UnknownColumnError{Column: ref.Name, Schema: e.schema.String()}
			}
			// The builder resolves the bare name leftmost-first within the
			// range: the reference is faithful only if no earlier table in
			// the range owns the name.
			for _, prev := range sub[:i] {
				if prev.schema.ColIndex(ref.Name) >= 0 {
					return 0, &AmbiguousColumnError{Column: ref.Name, Tables: sc.owners(ref.Name)}
				}
			}
			return lo + i, nil
		}
		return 0, &UnknownTableError{Table: ref.Table}
	}
	var owners []string
	at := -1
	for i, e := range sub {
		if e.schema.ColIndex(ref.Name) >= 0 {
			owners = append(owners, e.qual)
			if at < 0 {
				at = lo + i
			}
		}
	}
	switch len(owners) {
	case 0:
		return 0, &UnknownColumnError{Column: ref.Name, Schema: sc.joinedSchema()}
	case 1:
		return at, nil
	default:
		return 0, &AmbiguousColumnError{Column: ref.Name, Tables: owners}
	}
}

// ---- SELECT lowering ---------------------------------------------------------

// lowerSelect lowers one SELECT onto the builder in written order.
func (db *DB) lowerSelect(sel *sql.Select) (*Query, error) {
	// 1. FROM: open the scope and scan the first table.
	scope := &sqlScope{}
	addTable := func(ref sql.TableRef) error {
		schema, err := db.Schema(ref.Table)
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
		return nil, err
	}
	q := db.Scan(sel.From.Table)

	// 2. Joins. WHERE splits into conjuncts up front: comma-syntax joins
	// consume their equality conjuncts as hash-join keys, and whatever
	// remains becomes the post-join filter.
	where := splitConjuncts(sel.Where)
	var residual []sql.Pred // ON conjuncts beyond the hash-join equality
	for _, j := range sel.Joins {
		leftEnd := len(scope.entries)
		if err := addTable(j.Ref); err != nil {
			return nil, err
		}
		right := db.Scan(j.Ref.Table)
		if j.On != nil {
			conj := splitConjuncts(j.On)
			lc, rc, rest, err := scope.extractEquiKey(conj, leftEnd)
			if err != nil {
				return nil, err
			}
			if lc != "" {
				q = q.Join(right, lc, rc)
				residual = append(residual, rest...)
			} else {
				// No usable equality: lower the whole ON as a nested-loop
				// join predicate over the concatenated schema.
				on, err := lowerPred(scope, j.On)
				if err != nil {
					return nil, err
				}
				q = q.JoinOn(right, on)
			}
		} else {
			lc, rc, rest, err := scope.extractEquiKey(where, leftEnd)
			if err != nil {
				return nil, err
			}
			where = rest
			if lc != "" {
				q = q.Join(right, lc, rc)
			} else {
				// Cross join: nested loops with an always-true predicate.
				q = q.JoinOn(right, And())
			}
		}
	}

	// 3. Filter: remaining WHERE conjuncts plus ON residuals.
	filters := append(residual, where...)
	if len(filters) > 0 {
		p, err := lowerConjuncts(scope, filters)
		if err != nil {
			return nil, err
		}
		q = q.Filter(p)
	}

	// 4. Grouping and aggregation.
	grouped := len(sel.GroupBy) > 0
	hasAgg := grouped
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
				return nil, err
			}
		}
		sortCols[i] = k.Col.Name
	}
	sort := func(q *Query) *Query {
		if len(sortCols) == 0 {
			return q
		}
		if sel.OrderBy[0].Desc {
			return q.SortDesc(sortCols...)
		}
		return q.Sort(sortCols...)
	}
	allIn := func(s *Schema, cols []string) bool {
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
			return nil, err
		}
		q = sort(q)
	} else {
		pre := q
		q, err = lowerProjection(scope, q, sel.Items)
		if err != nil {
			return nil, err
		}
		switch {
		case len(sortCols) == 0 || allIn(q.Schema(), sortCols):
			q = sort(q)
		case allIn(pre.Schema(), sortCols):
			q, err = lowerProjection(scope, sort(pre), sel.Items)
			if err != nil {
				return nil, err
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
func (sc *sqlScope) extractEquiKey(conj []sql.Pred, leftEnd int) (lc, rc string, rest []sql.Pred, err error) {
	// keySide resolves one side of a candidate equality the way the builder
	// will: against the accumulated left prefix, or against the right scan
	// alone. ok=false defers the conjunct to the post-join residue (where
	// full-scope resolution reports any real error).
	keySide := func(ref *sql.ColumnRef) (left bool, ok bool) {
		if _, err := sc.entryOfIn(ref, 0, leftEnd); err == nil {
			return true, true
		}
		if _, err := sc.entryOfIn(ref, leftEnd, leftEnd+1); err == nil {
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
	return lc, rc, rest, nil
}

// ---- Aggregation lowering ----------------------------------------------------

// aggInfo is one distinct aggregate call found in the SELECT list.
type aggInfo struct {
	call *sql.AggCall
	name string // output column name in the GroupBy/Aggregate schema
}

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
func lowerAggregate(scope *sqlScope, q *Query, sel *sql.Select) (*Query, error) {
	// Group keys, resolved through the scope.
	keys := make([]string, len(sel.GroupBy))
	keySet := make(map[string]bool, len(sel.GroupBy))
	for i := range sel.GroupBy {
		name, err := scope.resolve(&sel.GroupBy[i])
		if err != nil {
			return nil, err
		}
		keys[i] = name
		keySet[name] = true
	}

	// Collect distinct aggregate calls across the select list.
	var aggs []aggInfo
	aggByCanon := make(map[string]int)
	collect := func(e sql.Expr) {
		var walk func(e sql.Expr)
		walk = func(e sql.Expr) {
			switch x := e.(type) {
			case *sql.AggCall:
				canon := x.String()
				if _, ok := aggByCanon[canon]; !ok {
					aggByCanon[canon] = len(aggs)
					aggs = append(aggs, aggInfo{call: x, name: canon})
				}
			case *sql.BinaryExpr:
				walk(x.L)
				walk(x.R)
			}
		}
		walk(e)
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, &StatementError{Stmt: "SELECT",
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
		spec, err := lowerAgg(scope, a.call)
		if err != nil {
			return nil, err
		}
		specs[i] = spec.As(a.name)
	}
	if len(sel.GroupBy) > 0 {
		q = q.GroupBy(keys, specs...)
	} else {
		q = q.Aggregate(specs...)
	}

	// Project select items against the grouped output schema.
	groupedScope := &sqlScope{}
	items := make([]Expr, len(sel.Items))
	outSchema := q.Schema()
	if outSchema != nil {
		groupedScope.entries = []scopeEntry{{qual: "", schema: outSchema}}
	}
	for i, it := range sel.Items {
		rewritten := rewriteAggRefs(it.Expr, aggByCanon, aggs, scope, keySet)
		e, err := lowerExpr(groupedScope, rewritten)
		if err != nil {
			return nil, err
		}
		if it.Alias != "" {
			e = e.As(it.Alias)
		} else if name := outputName(it.Expr); name != "" {
			e = e.As(name)
		}
		items[i] = e
	}
	return q.Project(items...), nil
}

// trySimpleAggShape recognizes the direct GroupBy/Aggregate shape and emits
// it without a trailing Project. simple=false means the caller should fall
// back to the general lowering.
func trySimpleAggShape(scope *sqlScope, q *Query, sel *sql.Select, keys []string) (bool, *Query, error) {
	nk := len(keys)
	if len(sel.Items) < nk {
		return false, nil, nil
	}
	for i := 0; i < nk; i++ {
		it := sel.Items[i]
		if it.Alias != "" {
			return false, nil, nil
		}
		ref, ok := it.Expr.(*sql.ColumnRef)
		if !ok {
			return false, nil, nil
		}
		name, err := scope.resolve(ref)
		if err != nil || name != keys[i] {
			return false, nil, nil
		}
	}
	specs := make([]Agg, 0, len(sel.Items)-nk)
	for _, it := range sel.Items[nk:] {
		call, ok := it.Expr.(*sql.AggCall)
		if !ok {
			return false, nil, nil
		}
		spec, err := lowerAgg(scope, call)
		if err != nil {
			return false, nil, err
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
func rewriteAggRefs(e sql.Expr, byCanon map[string]int, aggs []aggInfo, scope *sqlScope, keySet map[string]bool) sql.Expr {
	switch x := e.(type) {
	case *sql.AggCall:
		return &sql.ColumnRef{Name: aggs[byCanon[x.String()]].name}
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op,
			L: rewriteAggRefs(x.L, byCanon, aggs, scope, keySet),
			R: rewriteAggRefs(x.R, byCanon, aggs, scope, keySet)}
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
func lowerProjection(scope *sqlScope, q *Query, items []sql.SelectItem) (*Query, error) {
	if len(items) == 1 && items[0].Star {
		return q, nil
	}
	exprs := make([]Expr, len(items))
	for i, it := range items {
		if it.Star {
			return nil, &StatementError{Stmt: "SELECT",
				Reason: "* cannot be combined with other select items"}
		}
		e, err := lowerExpr(scope, it.Expr)
		if err != nil {
			return nil, err
		}
		if it.Alias != "" {
			e = e.As(it.Alias)
		} else if name := outputName(it.Expr); name != "" {
			e = e.As(name)
		}
		exprs[i] = e
	}
	return q.Project(exprs...), nil
}

// outputName derives the default output column name of an unaliased item:
// the bare column name for references, nothing (positional fallback) for
// computed expressions.
func outputName(e sql.Expr) string {
	if ref, ok := e.(*sql.ColumnRef); ok {
		return ref.Name
	}
	if call, ok := e.(*sql.AggCall); ok {
		return call.String()
	}
	return ""
}

// ---- Expression / predicate lowering -----------------------------------------

// litValue extracts a literal's Value (ok=false for non-literals).
func litValue(e sql.Expr) (Value, bool) {
	switch x := e.(type) {
	case *sql.IntLit:
		return IntValue(x.V), true
	case *sql.FloatLit:
		return FloatValue(x.V), true
	case *sql.StringLit:
		return StringValue(x.V), true
	case *sql.DateLit:
		return DateValue(x.Days), true
	}
	return Value{}, false
}

func lowerExpr(scope *sqlScope, e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		name, err := scope.resolve(x)
		if err != nil {
			return Expr{}, err
		}
		return Col(name), nil
	case *sql.IntLit:
		return Int(x.V), nil
	case *sql.FloatLit:
		return Float(x.V), nil
	case *sql.StringLit:
		return String(x.V), nil
	case *sql.DateLit:
		return Date(x.Days), nil
	case *sql.BinaryExpr:
		l, err := lowerExpr(scope, x.L)
		if err != nil {
			return Expr{}, err
		}
		r, err := lowerExpr(scope, x.R)
		if err != nil {
			return Expr{}, err
		}
		switch x.Op {
		case '+':
			return l.Add(r), nil
		case '-':
			return l.Sub(r), nil
		case '*':
			return l.Mul(r), nil
		default:
			return l.Div(r), nil
		}
	case *sql.AggCall:
		return Expr{}, &StatementError{Stmt: "SELECT",
			Reason: fmt.Sprintf("aggregate %s is not valid here", x)}
	default:
		return Expr{}, &StatementError{Stmt: "SELECT", Reason: fmt.Sprintf("unsupported expression %s", e)}
	}
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
		switch x.Op {
		case "=":
			return l.Eq(r), nil
		case "<>":
			return l.Ne(r), nil
		case "<":
			return l.Lt(r), nil
		case "<=":
			return l.Le(r), nil
		case ">":
			return l.Gt(r), nil
		default: // ">="
			return l.Ge(r), nil
		}
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
		vals := make([]Value, len(x.Vals))
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

// ---- Session -----------------------------------------------------------------

// Session is one client's state across statements: the execution settings
// SQL SET adjusts, and its open transaction. The engine itself is
// sessionless; a front end (a server connection, the qpipe-shell REPL)
// keeps one Session and runs its statements through QuerySession and
// ExecSession, which apply the settings before each call's own options:
//
//	SET parallelism = 8;             -- WithParallelism(8)
//	SET batch_size = 128;            -- WithBatchSize(128)
//	SET osp = off;                   -- WithoutOSP()
//	SET statement_timeout = '500ms'; -- WithTimeout(500ms); bare ints are ms
//
// The zero Session means "engine defaults" and yields no options. An
// embedded Session is no node of its own in the deadlock detector's graph:
// its results and every bare Result share one, so a goroutine may hold a
// result of one kind while it reads another and the detector still sees the
// cycle. A server connection's session is a node of its own.
type Session struct {
	// Parallelism is the per-query intra-operator fan-out (0 = engine
	// default).
	Parallelism int
	// BatchSize is the per-query tuples-per-batch target (0 = engine
	// default).
	BatchSize int
	// OSPOff opts queries out of on-demand simultaneous pipelining.
	OSPOff bool
	// StatementTimeout bounds each query's execution (WithTimeout); queries
	// exceeding it fail with a *DeadlineError. 0 = no timeout.
	StatementTimeout time.Duration

	// tx is the session's open explicit transaction (nil outside
	// BEGIN..COMMIT/ROLLBACK). The router maintains it; Close rolls it back.
	tx *Tx
	// reader is the Waits-For node that reads the session's results
	// (core.QueryOptions.Reader). The server sets it for its connection's
	// session before the first statement: one goroutine reads that
	// connection's results, so a result another connection reads is never
	// mistaken for this one's. It stays 0 for an embedded session, whose
	// results are read, like every bare Result's, by node 0: a goroutine may
	// mix both, and a cycle through the results it holds must stay visible.
	reader int64
}

// Apply folds one SET statement into the session. Unknown settings and bad
// values return an *OptionError.
func (s *Session) Apply(st *sql.Set) error {
	val := strings.ToLower(st.Value)
	switch st.Name {
	case "parallelism":
		n, _ := strconv.Atoi(val) // not an integer: 0, out of range
		if err := checkCount("SET parallelism", "parallelism", n, maxParallelism); err != nil {
			return err
		}
		s.Parallelism = n
	case "batch_size":
		n, _ := strconv.Atoi(val)
		if err := checkCount("SET batch_size", "batch size", n, maxBatchSize); err != nil {
			return err
		}
		s.BatchSize = n
	case "osp":
		switch val {
		case "on", "true", "1":
			s.OSPOff = false
		case "off", "false", "0":
			s.OSPOff = true
		default:
			return &OptionError{Option: "SET osp", Reason: "must be on or off"}
		}
	case "statement_timeout":
		// Postgres convention: a bare integer is milliseconds; duration
		// strings ("500ms", "2s") work too. 0 disables the timeout.
		var d time.Duration
		if n, err := strconv.Atoi(val); err == nil {
			d = time.Duration(n) * time.Millisecond
		} else if pd, err := time.ParseDuration(val); err == nil {
			d = pd
		} else {
			return &OptionError{Option: "SET statement_timeout",
				Reason: "must be a duration (500ms, 2s) or integer milliseconds"}
		}
		if d < 0 {
			return &OptionError{Option: "SET statement_timeout", Reason: "must be >= 0"}
		}
		s.StatementTimeout = d
	default:
		return &OptionError{Option: "SET " + st.Name,
			Reason: "unknown setting (supported: parallelism, batch_size, osp, statement_timeout)"}
	}
	return nil
}

// resolve readies a statement to run under the session: its settings apply
// before opts, and its reader reads the statement's result. A nil session
// resolves opts alone.
func (s *Session) resolve(opts []QueryOption) (queryOpts, error) {
	if s == nil {
		return resolveOpts(opts)
	}
	o, err := resolveOpts(append(s.Options(), opts...))
	o.core.Reader = s.reader
	return o, err
}

// Options renders the session's non-default settings as per-query options.
func (s *Session) Options() []QueryOption {
	var opts []QueryOption
	if s.Parallelism > 0 {
		opts = append(opts, WithParallelism(s.Parallelism))
	}
	if s.BatchSize > 0 {
		opts = append(opts, WithBatchSize(s.BatchSize))
	}
	if s.OSPOff {
		opts = append(opts, WithoutOSP())
	}
	if s.StatementTimeout > 0 {
		opts = append(opts, WithTimeout(s.StatementTimeout))
	}
	return opts
}

// String renders the current settings (the shell's \set display).
func (s *Session) String() string {
	par, batch, osp := "default", "default", "on"
	if s.Parallelism > 0 {
		par = strconv.Itoa(s.Parallelism)
	}
	if s.BatchSize > 0 {
		batch = strconv.Itoa(s.BatchSize)
	}
	if s.OSPOff {
		osp = "off"
	}
	timeout := "off"
	if s.StatementTimeout > 0 {
		timeout = s.StatementTimeout.String()
	}
	return fmt.Sprintf("parallelism=%s batch_size=%s osp=%s statement_timeout=%s", par, batch, osp, timeout)
}
