// SQL execution: the DB entry points Query, QuerySession, Exec, ExecSession
// and Prepare, and runStmt, the statement router they share. qpipe/internal/lower
// lowers each statement onto exactly the plan the equivalent builder chain
// produces, with the builder's typed errors; syntax mistakes are
// position-annotated *sql.ParseError values.
package qpipe

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qpipe/internal/lower"
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
		var p Plan
		var limit int64
		if err == nil {
			p, limit, err = q.compile()
		}
		if err == nil {
			err = tx.guard(p)
		}
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
		rows, err := lower.InsertRows(accessCatalog{db}, s)
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
		node, err := lower.Update(accessCatalog{db}, s)
		if err != nil {
			return nil, 0, err
		}
		n, err := db.execMutation(ctx, tx, node, o)
		return nil, n, err
	case *sql.Delete:
		node, err := lower.Delete(accessCatalog{db}, s)
		if err != nil {
			return nil, 0, err
		}
		n, err := db.execMutation(ctx, tx, node, o)
		return nil, n, err
	case *sql.CreateTable:
		return nil, 0, db.CreateTable(s.Name, lower.TableSchema(s))
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

// lowerSelect lowers a SELECT onto the builder.
func (db *DB) lowerSelect(sel *sql.Select) (*Query, error) {
	q, err := lower.Select(accessCatalog{db}, sel)
	if err != nil {
		return nil, err
	}
	return &Query{db, q}, nil
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
	lines := strings.Split(strings.TrimRight(q.q.Explain(p), "\n"), "\n")
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
