// Explicit transactions on the facade: db.Begin returns a Tx that stages
// INSERT/UPDATE/DELETE across statements and commits them atomically — one
// WAL batch, one durable flush, all-or-nothing visibility. A Session owns at
// most one Tx, which its BEGIN/COMMIT/ROLLBACK open and close through the
// statement router (runStmt) that every SQL front end shares.
//
// Transactions take table exclusive locks at first touch and hold them to
// Commit/Rollback. Reads do not go through the transaction: they see
// committed state only, and a session's read of a table its transaction
// has written — which would wait on its own lock — is a typed
// *TxConflictError instead.
package qpipe

import (
	"context"

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
	return tx.db.script(ctx, &Session{tx: tx}, text, txKind)
}

// txKind is Tx.Exec's kind check, and the router's for DDL inside a
// session's transaction: a transaction stages only rows.
func txKind(stmt sql.Statement) error {
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
		return nil
	}
	return &StatementError{Stmt: statementName(stmt),
		Reason: "not allowed inside a transaction (only INSERT, UPDATE and DELETE stage)"}
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

// ExecSession is Exec under a session: SET folds into it, BEGIN/COMMIT/
// ROLLBACK control its transaction, and INSERT/UPDATE/DELETE stage into
// that transaction when one is open (autocommitting otherwise, with the
// session's options as its queries have them: SET statement_timeout bounds
// a mutation too). This is what the network server runs for each Exec
// frame, giving remote clients transactions. Returns the total rows
// affected by the script's mutations. A nil sess is Exec.
func (db *DB) ExecSession(ctx context.Context, sess *Session, text string) (int64, error) {
	return db.script(ctx, sess, text, execKind)
}

// guard rejects a read that would self-deadlock: inside an open transaction
// (a non-nil tx), reading a table the transaction has written would wait
// forever on its own exclusive lock. Reads of untouched tables (committed
// state) pass through. It is checked when the query runs, against the
// tables its plan reads.
func (tx *Tx) guard(p Plan) error {
	if tx == nil {
		return nil
	}
	for _, table := range plan.Tables(p) {
		if tx.tx.Writes(table) {
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
