// Remote transactions: BEGIN/COMMIT/ROLLBACK over the wire, exercised
// through the real client/server stack. External test package (imports
// qpipe/client, which imports qpipe back).
package qpipe_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"qpipe"
	"qpipe/client"
)

func connCount(t *testing.T, conn *client.Conn, query string) int64 {
	t.Helper()
	rows, err := conn.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	return all[0][0].I
}

func TestRemoteTransactions(t *testing.T) {
	_, _, addr := startServer(t, 100, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Rollback: staged mutations vanish.
	if err := conn.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Exec(ctx, "INSERT INTO t VALUES (5000, 0, 1.5, 'tx'); DELETE FROM t WHERE id < 10"); err != nil || n != 11 {
		t.Fatalf("staged script: n=%d err=%v", n, err)
	}
	// SELECT over the written table inside the transaction is the typed
	// conflict, surfaced across the wire.
	var conflict *qpipe.TxConflictError
	if _, err := conn.Query(ctx, "SELECT count(*) FROM t"); !errors.As(err, &conflict) || conflict.Table != "t" {
		t.Fatalf("in-tx read of written table: got %v", err)
	}
	if err := conn.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	if got := connCount(t, conn, "SELECT count(*) FROM t"); got != 100 {
		t.Fatalf("rollback leaked: %d rows, want 100", got)
	}

	// Commit: the whole script lands atomically.
	if err := conn.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx, "INSERT INTO t VALUES (5000, 0, 1.5, 'tx'); UPDATE t SET note = 'kept' WHERE id = 5000"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := connCount(t, conn, "SELECT count(*) FROM t WHERE note = 'kept'"); got != 1 {
		t.Fatalf("committed row missing: %d", got)
	}

	// Transaction-state errors round-trip.
	var state *qpipe.TxStateError
	if err := conn.Commit(ctx); !errors.As(err, &state) || state.Open {
		t.Fatalf("stray COMMIT: got %v", err)
	}
	if err := conn.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if err := conn.Begin(ctx); !errors.As(err, &state) || !state.Open {
		t.Fatalf("double BEGIN: got %v", err)
	}
	if err := conn.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRemotePreparedReadInsideTx: a prepared SELECT is guarded when it runs,
// like a text one — the transaction opened after the Prepare — so a read of a
// table the session's transaction has written is a *TxConflictError at once,
// not a wait on the session's own lock.
func TestRemotePreparedReadInsideTx(t *testing.T) {
	_, _, addr := startServer(t, 100, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stmt, err := conn.Prepare(ctx, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx, "INSERT INTO t VALUES (5000, 0, 1.5, 'tx')"); err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query(ctx, client.WithTimeout(time.Second))
	if err == nil {
		_, err = rows.All()
	}
	var conflict *qpipe.TxConflictError
	if !errors.As(err, &conflict) || conflict.Table != "t" {
		t.Fatalf("prepared in-tx read of written table: got %v", err)
	}
	if err := conn.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err = stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if all, err := rows.All(); err != nil || all[0][0].I != 100 {
		t.Fatalf("after ROLLBACK: %v %v", all, err)
	}
}

// TestRemoteTxDisconnectRollsBack: a client that vanishes mid-transaction
// must not leave the table locked or its staged writes half-visible — the
// server's session teardown rolls the transaction back.
func TestRemoteTxDisconnectRollsBack(t *testing.T) {
	_, _, addr := startServer(t, 100, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()

	conn1, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn1.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn1.Exec(ctx, "INSERT INTO t VALUES (7000, 0, 1.0, 'orphan')"); err != nil {
		t.Fatal(err)
	}
	// The transaction now holds t's exclusive lock. Drop the connection.
	conn1.Close()

	conn2, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	// This write queues on the lock until the server tears the dead session
	// down; completing at all proves the rollback released it.
	if _, err := conn2.Exec(ctx, "INSERT INTO t VALUES (7001, 0, 1.0, 'alive')"); err != nil {
		t.Fatal(err)
	}
	if got := connCount(t, conn2, "SELECT count(*) FROM t WHERE id = 7000"); got != 0 {
		t.Fatalf("orphaned insert survived disconnect: %d", got)
	}
	if got := connCount(t, conn2, "SELECT count(*) FROM t WHERE id = 7001"); got != 1 {
		t.Fatalf("post-disconnect insert missing: %d", got)
	}
}
