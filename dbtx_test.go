package qpipe

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qpipe/internal/storage/sm"
)

// Facade transaction tests: SQL UPDATE/DELETE through db.Exec, explicit
// transactions through db.Begin, session-routed BEGIN/COMMIT/ROLLBACK
// through ExecSession, and the Load-on-live-database locking regression.

func count(t *testing.T, db *DB, query string) int64 {
	t.Helper()
	res, err := db.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][0].I
}

func TestSQLUpdateDelete(t *testing.T) {
	db := openTestDB(t, 100, Options{PoolPages: 64})
	ctx := context.Background()

	// UPDATE with WHERE: rows k<10 get val = val + 100.
	n, err := db.Exec(ctx, "UPDATE t SET val = val + 100 WHERE k < 10")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("UPDATE affected %d, want 10", n)
	}
	if got := count(t, db, "SELECT count(*) FROM t WHERE val >= 100"); got != 10 {
		t.Fatalf("%d rows with bumped val, want 10", got)
	}

	// DELETE with WHERE.
	n, err = db.Exec(ctx, "DELETE FROM t WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("DELETE affected %d, want 10", n)
	}
	if got := count(t, db, "SELECT count(*) FROM t"); got != 90 {
		t.Fatalf("%d rows after delete, want 90", got)
	}

	// UPDATE without WHERE hits every remaining row; integer literal widens
	// to the float column like INSERT coercion does.
	n, err = db.Exec(ctx, "UPDATE t SET val = 7")
	if err != nil {
		t.Fatal(err)
	}
	if n != 90 {
		t.Fatalf("unfiltered UPDATE affected %d, want 90", n)
	}

	// Typed errors: unknown column, duplicate assignment, type mismatch.
	if _, err := db.Exec(ctx, "UPDATE t SET nosuch = 1"); !errors.As(err, new(*UnknownColumnError)) {
		t.Fatalf("unknown column: got %v", err)
	}
	if _, err := db.Exec(ctx, "UPDATE t SET k = 1, k = 2"); !errors.As(err, new(*DuplicateColumnError)) {
		t.Fatalf("duplicate assignment: got %v", err)
	}
	if _, err := db.Exec(ctx, "UPDATE t SET k = 'oops'"); !errors.As(err, new(*TypeMismatchError)) {
		t.Fatalf("type mismatch: got %v", err)
	}
	// BEGIN through the stateless entry point is a typed statement error
	// pointing at the session paths.
	if _, err := db.Exec(ctx, "BEGIN"); !errors.As(err, new(*StatementError)) {
		t.Fatalf("BEGIN via Exec: got %v", err)
	}
}

func TestTxCommitVisibility(t *testing.T) {
	db := openTestDB(t, 50, Options{PoolPages: 64})
	ctx := context.Background()

	tx := db.Begin()
	defer tx.Rollback()
	// Multi-statement staging: later statements see earlier ones (the
	// UPDATE rewrites the row INSERTed two lines up).
	if _, err := tx.Exec(ctx, "INSERT INTO t VALUES (1000, 0, 1.0, 'staged')"); err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Exec(ctx, "UPDATE t SET name = 'final' WHERE k = 1000"); err != nil || n != 1 {
		t.Fatalf("staged update: n=%d err=%v", n, err)
	}
	if n, err := tx.Exec(ctx, "DELETE FROM t WHERE k = 0"); err != nil || n != 1 {
		t.Fatalf("staged delete: n=%d err=%v", n, err)
	}
	// DDL and SELECT refuse to stage.
	if _, err := tx.Exec(ctx, "CREATE TABLE u (a INT)"); !errors.As(err, new(*StatementError)) {
		t.Fatalf("DDL in tx: got %v", err)
	}
	if _, err := tx.Exec(ctx, "SELECT * FROM t"); !errors.As(err, new(*StatementError)) {
		t.Fatalf("SELECT in tx: got %v", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// All-or-nothing visibility after commit.
	if got := count(t, db, "SELECT count(*) FROM t WHERE name = 'final'"); got != 1 {
		t.Fatalf("committed insert+update missing: %d", got)
	}
	if got := count(t, db, "SELECT count(*) FROM t WHERE k = 0"); got != 0 {
		t.Fatalf("committed delete missing: %d", got)
	}
	// Finished transactions refuse further work.
	if err := tx.Commit(ctx); !errors.As(err, new(*sm.TxDoneError)) {
		t.Fatalf("double commit: got %v", err)
	}
}

func TestTxRollback(t *testing.T) {
	db := openTestDB(t, 50, Options{PoolPages: 64})
	ctx := context.Background()

	tx := db.Begin()
	if _, err := tx.Exec(ctx, "INSERT INTO t VALUES (1000, 0, 1.0, 'ghost'); DELETE FROM t WHERE k < 10"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := count(t, db, "SELECT count(*) FROM t"); got != 50 {
		t.Fatalf("rollback leaked changes: %d rows, want 50", got)
	}
	// The rollback released the table lock: autocommit writes proceed.
	if _, err := db.Exec(ctx, "DELETE FROM t WHERE k = 0"); err != nil {
		t.Fatal(err)
	}
}

func TestExecSessionTransactions(t *testing.T) {
	db := openTestDB(t, 50, Options{PoolPages: 64})
	ctx := context.Background()
	var sess Session

	// Script with an open transaction at the end: stays open on the session.
	if _, err := db.ExecSession(ctx, &sess, "BEGIN; INSERT INTO t VALUES (1000, 0, 1.0, 'x')"); err != nil {
		t.Fatal(err)
	}
	if !sess.InTx() {
		t.Fatal("session should have an open transaction")
	}
	// Reading a table this transaction wrote would self-deadlock; the guard
	// turns it into a typed error.
	if _, err := db.QuerySession(ctx, &sess, "SELECT count(*) FROM t"); !errors.As(err, new(*TxConflictError)) {
		t.Fatalf("QuerySession: got %v", err)
	}
	// Double BEGIN is a typed state error.
	if _, err := db.ExecSession(ctx, &sess, "BEGIN"); !errors.As(err, new(*TxStateError)) {
		t.Fatalf("double BEGIN: got %v", err)
	}
	if _, err := db.ExecSession(ctx, &sess, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	if sess.InTx() {
		t.Fatal("transaction should be closed after COMMIT")
	}
	if got := count(t, db, "SELECT count(*) FROM t WHERE k = 1000"); got != 1 {
		t.Fatalf("committed row missing: %d", got)
	}

	// COMMIT / ROLLBACK with nothing open are typed state errors.
	if _, err := db.ExecSession(ctx, &sess, "COMMIT"); !errors.As(err, new(*TxStateError)) {
		t.Fatalf("stray COMMIT: got %v", err)
	}
	if _, err := db.ExecSession(ctx, &sess, "ROLLBACK"); !errors.As(err, new(*TxStateError)) {
		t.Fatalf("stray ROLLBACK: got %v", err)
	}

	// ROLLBACK discards the staged statement.
	if _, err := db.ExecSession(ctx, &sess, "BEGIN; DELETE FROM t; ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := count(t, db, "SELECT count(*) FROM t"); got != 51 {
		t.Fatalf("rolled-back delete leaked: %d rows, want 51", got)
	}

	// Session.Close rolls back an abandoned transaction (the server calls
	// this on disconnect) and releases its locks.
	if _, err := db.ExecSession(ctx, &sess, "BEGIN; INSERT INTO t VALUES (2000, 0, 1.0, 'gone')"); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if sess.InTx() {
		t.Fatal("Close left the transaction open")
	}
	if got := count(t, db, "SELECT count(*) FROM t WHERE k = 2000"); got != 0 {
		t.Fatalf("abandoned insert survived Close: %d", got)
	}
}

// TestLoadOnLiveDB is the regression for Load's locking contract: Load
// bulk-appends as one committed transaction under the table's exclusive
// lock, so concurrent readers see each batch none-or-all — a count query
// racing the loader can only ever observe initial + k*batch rows.
func TestLoadOnLiveDB(t *testing.T) {
	const (
		initial = 1000
		batch   = 500
		batches = 4
	)
	db := openTestDB(t, initial, Options{PoolPages: 64})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := db.Query(ctx, "SELECT count(*) FROM t")
			if err != nil {
				t.Error(err)
				return
			}
			rows, err := res.All()
			if err != nil {
				t.Error(err)
				return
			}
			c := rows[0][0].I
			if c < initial || (c-initial)%batch != 0 {
				t.Errorf("count %d is a torn Load (want %d + k*%d)", c, initial, batch)
				return
			}
		}
	}()

	for b := 0; b < batches; b++ {
		rows := make([]Row, batch)
		for i := range rows {
			k := 10_000 + b*batch + i
			rows[i] = R(k, k%10, float64(k), "bulk")
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := count(t, db, "SELECT count(*) FROM t"); got != initial+batch*batches {
		t.Fatalf("final count %d, want %d", got, initial+batch*batches)
	}
}
