// The routing table: every statement kind crossed with every SQL entry
// point, embedded and over the wire. External test package (imports
// qpipe/client, which imports qpipe back).
package qpipe_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"qpipe"
	"qpipe/client"
)

// openTx opens a session's transaction that has written table t.
const openTx = "BEGIN; INSERT INTO t VALUES (50, 0, 1.5, 'tx')"

// drain reads a result to its end and returns the first error on the way.
func drain[R interface{ All() ([]qpipe.Row, error) }](res R, err error) error {
	if err != nil {
		return err
	}
	_, err = res.All()
	return err
}

// TestStatementRouting runs each statement kind through each entry point on
// a fresh database (served, for the wire's entry points), and expects
// success (nil) or one exact typed error. A session over the wire answers
// as an embedded one does: the client rebuilds the server's typed error.
func TestStatementRouting(t *testing.T) {
	kinds := []struct{ name, text string }{
		{"SELECT", "SELECT id FROM t"},
		{"EXPLAIN", "EXPLAIN SELECT id FROM t"},
		{"SET", "SET parallelism = 2"},
		{"BEGIN", "BEGIN"},
		{"COMMIT", "COMMIT"},
		{"ROLLBACK", "ROLLBACK"},
		{"CREATE TABLE", "CREATE TABLE u (a INT)"},
		{"CREATE INDEX", "CREATE INDEX ON t (id)"},
		{"ANALYZE", "ANALYZE t"},
		{"INSERT", "INSERT INTO t VALUES (100, 0, 1.5, 'x')"},
		{"UPDATE", "UPDATE t SET grp = 7 WHERE id = 1"},
		{"DELETE", "DELETE FROM t WHERE id = 1"},
	}

	stmtErr := func(reason string) func(string) error {
		return func(kind string) error { return &qpipe.StatementError{Stmt: kind, Reason: reason} }
	}
	returnsRows := stmtErr("returns rows; use Query")
	noRows := stmtErr("does not return rows; use Exec")
	txControl := stmtErr("transaction statement — use db.Begin, or ExecSession with a qpipe.Session")
	notInTx := stmtErr("not allowed inside a transaction (only INSERT, UPDATE and DELETE stage)")
	sessionless := &qpipe.StatementError{Stmt: "SET",
		Reason: "session statement — apply it to a qpipe.Session (the shell does this)"}

	// What each kind of front end answers.
	query := func(sess, inTx bool) func(string) error {
		return func(kind string) error {
			switch {
			case kind == "SELECT" && inTx:
				return &qpipe.TxConflictError{Table: "t"}
			case kind == "SELECT" || kind == "EXPLAIN":
				return nil
			case kind == "SET" && !sess:
				return sessionless
			case kind == "SET":
				return nil
			}
			return noRows(kind)
		}
	}
	exec := func(sess, inTx bool) func(string) error {
		return func(kind string) error {
			switch kind {
			case "SELECT", "EXPLAIN":
				return returnsRows(kind)
			case "SET":
				if !sess {
					return sessionless
				}
			case "BEGIN", "COMMIT", "ROLLBACK":
				if !sess {
					return txControl(kind)
				}
				if (kind == "BEGIN") == inTx {
					return &qpipe.TxStateError{Stmt: kind, Open: inTx}
				}
			case "CREATE TABLE", "CREATE INDEX", "ANALYZE":
				if inTx {
					return notInTx(kind)
				}
			}
			return nil
		}
	}
	staged := func(kind string) error {
		switch kind {
		case "INSERT", "UPDATE", "DELETE":
			return nil
		}
		return notInTx(kind)
	}

	type entry struct {
		name string
		run  func(ctx context.Context, t *testing.T, db *qpipe.DB, text string) error
		want func(kind string) error
	}
	embedded := func(inTx, isQuery bool) func(context.Context, *testing.T, *qpipe.DB, string) error {
		return func(ctx context.Context, _ *testing.T, db *qpipe.DB, text string) error {
			var sess qpipe.Session
			defer sess.Close()
			if inTx {
				if _, err := db.ExecSession(ctx, &sess, openTx); err != nil {
					return fmt.Errorf("opening the transaction: %w", err)
				}
			}
			if isQuery {
				return drain(db.QuerySession(ctx, &sess, text))
			}
			_, err := db.ExecSession(ctx, &sess, text)
			return err
		}
	}
	remote := func(inTx, isQuery bool) func(context.Context, *testing.T, *qpipe.DB, string) error {
		return func(ctx context.Context, t *testing.T, db *qpipe.DB, text string) error {
			_, addr := serveDB(t, db, qpipe.ServerOptions{})
			conn, err := client.Connect(ctx, addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			if inTx {
				if _, err := conn.Exec(ctx, openTx); err != nil {
					return fmt.Errorf("opening the transaction: %w", err)
				}
			}
			if isQuery {
				return drain(conn.Query(ctx, text))
			}
			_, err = conn.Exec(ctx, text)
			return err
		}
	}
	entries := []entry{
		{"DB.Query", func(ctx context.Context, _ *testing.T, db *qpipe.DB, text string) error {
			return drain(db.Query(ctx, text))
		}, query(false, false)},
		{"DB.Exec", func(ctx context.Context, _ *testing.T, db *qpipe.DB, text string) error {
			_, err := db.Exec(ctx, text)
			return err
		}, exec(false, false)},
		{"QuerySession", embedded(false, true), query(true, false)},
		{"QuerySession in tx", embedded(true, true), query(true, true)},
		{"ExecSession", embedded(false, false), exec(true, false)},
		{"ExecSession in tx", embedded(true, false), exec(true, true)},
		{"Tx.Exec", func(ctx context.Context, _ *testing.T, db *qpipe.DB, text string) error {
			tx := db.Begin()
			defer tx.Rollback()
			if _, err := tx.Exec(ctx, "INSERT INTO t VALUES (50, 0, 1.5, 'tx')"); err != nil {
				return fmt.Errorf("staging the first write: %w", err)
			}
			_, err := tx.Exec(ctx, text)
			return err
		}, staged},
		{"MsgQuery", remote(false, true), query(true, false)},
		{"MsgQuery in tx", remote(true, true), query(true, true)},
		{"MsgExec", remote(false, false), exec(true, false)},
		{"MsgExec in tx", remote(true, false), exec(true, true)},
	}

	ctx := context.Background()
	for _, e := range entries {
		for _, k := range kinds {
			t.Run(e.name+"/"+k.name, func(t *testing.T) {
				db, err := qpipe.Open(qpipe.Options{PoolPages: 32})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(db.Close)
				if _, err := db.Exec(ctx, "CREATE TABLE t (id INT, grp INT, amount FLOAT, note TEXT); "+
					"INSERT INTO t VALUES (0, 0, 0.5, 'a'), (1, 1, 1.5, 'b'), (2, 2, 2.5, 'c')"); err != nil {
					t.Fatal(err)
				}
				got, want := e.run(ctx, t, db, k.text), e.want(k.name)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: got %T %v, want %T %v", k.text, got, got, want, want)
				}
			})
		}
	}
}
