// Explicit transactions on the facade: db.Begin returns a Tx that stages
// INSERT/UPDATE/DELETE across statements and commits them atomically — one
// WAL batch, one durable flush, all-or-nothing visibility. ExecSession is
// the session-aware script runner the network server uses: it routes
// BEGIN/COMMIT/ROLLBACK to a per-session Tx and everything else to the
// stateless paths.
//
// Transactions take table exclusive locks at first touch and hold them to
// Commit/Rollback. Reads do not go through the transaction: db.Query sees
// committed state only (and a query over a table this transaction has
// written would wait on its own lock — sessions catch that and return a
// typed *TxConflictError instead).
package qpipe

import (
	"context"

	"qpipe/internal/ops"
	"qpipe/internal/plan"
	"qpipe/internal/storage/sm"
	"qpipe/sql"
)

// Tx is an explicit multi-statement transaction. It is not safe for
// concurrent use by multiple goroutines (a session owns its transaction);
// separate transactions may run concurrently.
type Tx struct {
	db *DB
	tx *sm.Tx
}

// Begin starts an explicit transaction. The caller must finish it with
// Commit or Rollback — an abandoned transaction holds its table locks
// forever.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, tx: db.mgr.Begin()}
}

// Exec runs a SQL script of INSERT, UPDATE and DELETE statements inside the
// transaction, staging their effects (visible to later statements in the
// same transaction, invisible to everyone else until Commit). DDL and
// queries are a *StatementError: CREATE/ANALYZE autocommit through db.Exec,
// SELECT through db.Query. Returns the total number of rows affected so far
// by this call.
func (tx *Tx) Exec(ctx context.Context, text string) (int64, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, stmt := range stmts {
		n, err := tx.execStmt(ctx, stmt)
		if err != nil {
			return affected, err
		}
		affected += n
	}
	return affected, nil
}

func (tx *Tx) execStmt(ctx context.Context, stmt sql.Statement) (int64, error) {
	switch s := stmt.(type) {
	case *sql.Insert:
		schema, err := tx.db.Schema(s.Table)
		if err != nil {
			return 0, err
		}
		rows, err := buildInsertRows(schema, s)
		if err != nil {
			return 0, err
		}
		if err := tx.Insert(ctx, s.Table, rows...); err != nil {
			return 0, err
		}
		return int64(len(rows)), nil
	case *sql.Update:
		node, err := tx.db.compileUpdate(s)
		if err != nil {
			return 0, err
		}
		return ops.StageMutation(ctx, tx.tx, node)
	case *sql.Delete:
		node, err := tx.db.compileDelete(s)
		if err != nil {
			return 0, err
		}
		return ops.StageMutation(ctx, tx.tx, node)
	default:
		return 0, &StatementError{Stmt: statementName(stmt),
			Reason: "not allowed inside a transaction (only INSERT, UPDATE and DELETE stage)"}
	}
}

// Insert stages rows for the table (the programmatic equivalent of INSERT
// inside the transaction). Rows are validated against the schema.
func (tx *Tx) Insert(ctx context.Context, table string, rows ...Row) error {
	t, err := tx.db.mgr.Table(table)
	if err != nil {
		return &UnknownTableError{Table: table}
	}
	if err := checkRows(table, t.Schema, rows); err != nil {
		return err
	}
	for _, r := range rows {
		if err := tx.tx.StageInsert(ctx, table, r); err != nil {
			return err
		}
	}
	return nil
}

// Commit makes the transaction's writes durable and visible: the net effect
// is logged as one WAL batch, flushed (the commit point), and applied to the
// heaps and indexes before the table locks release. Committing a finished
// transaction is a *sm.TxDoneError.
func (tx *Tx) Commit(ctx context.Context) error { return tx.tx.Commit(ctx) }

// Rollback discards the staged writes and releases the transaction's locks.
// Safe to call on a finished transaction (no-op), so "defer tx.Rollback()"
// after Begin is the idiomatic cleanup.
func (tx *Tx) Rollback() { tx.tx.Rollback() }

// ---- Session-aware execution ---------------------------------------------------

// ExecSession runs a SQL script with session state: SET folds into the
// session, BEGIN/COMMIT/ROLLBACK control the session's transaction, and
// INSERT/UPDATE/DELETE stage into it when one is open (autocommitting
// through the engine otherwise, with the session's options as its queries
// have them: SET statement_timeout bounds a mutation too). This is what the
// network server runs for each Exec frame, giving remote clients
// transactions. Returns the total rows affected by the script's mutations.
func (db *DB) ExecSession(ctx context.Context, sess *Session, text string) (int64, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sql.Set:
			if err := sess.Apply(s); err != nil {
				return affected, err
			}
		case *sql.Begin:
			if sess.tx != nil {
				return affected, &TxStateError{Stmt: "BEGIN", Open: true}
			}
			sess.tx = db.Begin()
		case *sql.Commit:
			if sess.tx == nil {
				return affected, &TxStateError{Stmt: "COMMIT"}
			}
			t := sess.tx
			sess.tx = nil
			if err := t.Commit(ctx); err != nil {
				return affected, err
			}
		case *sql.Rollback:
			if sess.tx == nil {
				return affected, &TxStateError{Stmt: "ROLLBACK"}
			}
			sess.tx.Rollback()
			sess.tx = nil
		default:
			var n int64
			var err error
			if sess.tx != nil {
				n, err = sess.tx.execStmt(ctx, stmt)
			} else {
				var o queryOpts
				if o, err = resolveOpts(sess.Options()); err == nil {
					n, err = db.execStmt(ctx, stmt, o)
				}
			}
			if err != nil {
				return affected, err
			}
			affected += n
		}
	}
	return affected, nil
}

// GuardQuery rejects a SELECT that would self-deadlock: inside an open
// transaction, reading a table the transaction has written would wait
// forever on the session's own exclusive lock. Reads of untouched tables
// (committed state) pass through. Front ends that pair db.Query with
// session transactions — the network server, the shell — call this before
// submitting.
func (s *Session) GuardQuery(stmt sql.Statement) error {
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil
	}
	tables := []string{sel.From.Table}
	for _, j := range sel.Joins {
		tables = append(tables, j.Ref.Table)
	}
	return s.guard(tables)
}

// guardPrepared is GuardQuery for a prepared statement, checked when it runs
// (the transaction may have opened after the Prepare) against the tables its
// plan reads.
func (s *Session) guardPrepared(q *Query) error {
	return s.guard(plan.Tables(q.node))
}

func (s *Session) guard(tables []string) error {
	for _, table := range tables {
		if s.tx != nil && s.tx.tx.Writes(table) {
			return &TxConflictError{Table: table}
		}
	}
	return nil
}

// Close rolls back the session's open transaction, if any (connection
// teardown; without it an abandoned remote transaction would hold its table
// locks forever).
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// InTx reports whether the session has an open transaction.
func (s *Session) InTx() bool { return s.tx != nil }
