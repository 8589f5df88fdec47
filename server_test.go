// Lifecycle tests for the network front end, exercising the real stack —
// TCP loopback, wire framing, the per-connection session — from the
// client's side of the socket. External test package: these tests import
// qpipe/client, which imports qpipe back, so they cannot live in package
// qpipe itself.
package qpipe_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/sql"
	"qpipe/wire"
)

// startServer opens a DB, loads n rows into table t, and serves it on a
// loopback listener. Cleanup shuts the server (and DB) down.
func startServer(t testing.TB, n int, dbOpts qpipe.Options, srvOpts qpipe.ServerOptions) (*qpipe.Server, *qpipe.DB, string) {
	t.Helper()
	db, err := qpipe.Open(dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	loadT(t, db, n)
	srv, addr := serveDB(t, db, srvOpts)
	return srv, db, addr
}

// loadT creates table t in db and loads n rows into it (none when n is 0).
func loadT(t testing.TB, db *qpipe.DB, n int) {
	t.Helper()
	if n > 0 {
		schema := qpipe.NewSchema(
			qpipe.ColDef("id", qpipe.KindInt),
			qpipe.ColDef("grp", qpipe.KindInt),
			qpipe.ColDef("amount", qpipe.KindFloat),
			qpipe.ColDef("note", qpipe.KindString),
		)
		if err := db.CreateTable("t", schema); err != nil {
			t.Fatal(err)
		}
		rows := make([]qpipe.Row, n)
		for i := range rows {
			rows[i] = qpipe.R(i, i%10, float64(i)*1.5, fmt.Sprintf("row-%d", i))
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
	}
}

// serveDB serves db on a loopback port until the test ends.
func serveDB(t testing.TB, db *qpipe.DB, srvOpts qpipe.ServerOptions) (*qpipe.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, db, srvOpts, ln), ln.Addr().String()
}

// serveOn serves db on ln until the test ends.
func serveOn(t testing.TB, db *qpipe.DB, srvOpts qpipe.ServerOptions, ln net.Listener) *qpipe.Server {
	t.Helper()
	srv := qpipe.NewServer(db, srvOpts)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after Shutdown, want nil", err)
		}
	})
	return srv
}

func TestServerQueryRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, 1000, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rows, err := conn.Query(ctx, "SELECT id, note FROM t WHERE id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if s := rows.Schema(); s.Len() != 2 || s.Cols[0].Name != "id" || s.Cols[1].Name != "note" {
		t.Fatalf("schema = %v", rows.Schema())
	}
	all, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("got %d rows, want 5", len(all))
	}
	if all[0][0].I != 0 || all[0][1].S != "row-0" {
		t.Fatalf("first row = %v", all[0])
	}

	// DDL + INSERT through Exec, then read it back.
	if _, err := conn.Exec(ctx, "CREATE TABLE u (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Exec(ctx, "INSERT INTO u VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("INSERT affected %d, want 2", n)
	}
	got, err := conn.Query(ctx, "SELECT count(*) AS n FROM u")
	if err != nil {
		t.Fatal(err)
	}
	all, err = got.All()
	if err != nil || len(all) != 1 || all[0][0].I != 2 {
		t.Fatalf("count = %v, %v", all, err)
	}

	// SET is absorbed by the server-side session.
	setRows, err := conn.Query(ctx, "SET batch_size = 32")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setRows.Discard(); err != nil {
		t.Fatal(err)
	}

	// Prepared statement, executed twice.
	stmt, err := conn.Prepare(ctx, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := stmt.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		all, err := r.All()
		if err != nil || len(all) != 1 || all[0][0].I != 1000 {
			t.Fatalf("exec %d: %v, %v", i, all, err)
		}
	}
	if err := stmt.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Server counters over the wire.
	stats, err := conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["queries_served"] < 4 {
		t.Fatalf("queries_served = %d, want >= 4", stats["queries_served"])
	}
	if stats["rows_sent"] < 7 {
		t.Fatalf("rows_sent = %d, want >= 7", stats["rows_sent"])
	}
	if stats["active_conns"] != 1 {
		t.Fatalf("active_conns = %d, want 1", stats["active_conns"])
	}
}

// TestServerTypedErrors: the error family crosses the wire as concrete
// types a client matches with errors.As/Is.
func TestServerTypedErrors(t *testing.T) {
	_, db, addr := startServer(t, 100, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Unknown table.
	_, err = conn.Query(ctx, "SELECT a FROM missing")
	var ut *qpipe.UnknownTableError
	if !errors.As(err, &ut) || ut.Table != "missing" {
		t.Fatalf("unknown table: got %[1]T %[1]v", err)
	}
	// Parse error, with its position.
	_, err = conn.Query(ctx, "SELEC a FROM t")
	var pe *sql.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("parse: got %[1]T %[1]v", err)
	}
	// Unknown column.
	_, err = conn.Query(ctx, "SELECT nope FROM t")
	var uc *qpipe.UnknownColumnError
	if !errors.As(err, &uc) || uc.Column != "nope" {
		t.Fatalf("unknown column: got %[1]T %[1]v", err)
	}
	// Statement misrouting (SELECT through Exec).
	_, err = conn.Exec(ctx, "SELECT id FROM t")
	var se *qpipe.StatementError
	if !errors.As(err, &se) {
		t.Fatalf("misroute: got %[1]T %[1]v", err)
	}
	// Bad SET values: out of range below, and far past the bound (one such
	// SET must not let a client take the server down on its next GROUP BY).
	var oe *qpipe.OptionError
	for _, bad := range []string{"SET parallelism = 0", "SET parallelism = 1000000000"} {
		if _, err = conn.Query(ctx, bad); !errors.As(err, &oe) {
			t.Fatalf("%s: got %[2]T %[2]v", bad, err)
		}
	}
	// Statement timeout → typed DeadlineError that unwraps to
	// context.DeadlineExceeded, exactly like the embedded API. The stall is
	// the test's own: an open transaction that has written t holds its X
	// lock, so the SELECT's S-lock wait outlives the 1ms budget.
	tx := db.Begin()
	if _, err := tx.Exec(ctx, "UPDATE t SET amount = amount + 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query(ctx, "SELECT id FROM t ORDER BY amount",
		client.WithTimeout(time.Millisecond))
	if err == nil {
		_, err = rows.Discard()
	}
	tx.Rollback()
	var de *qpipe.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("timeout: got %[1]T %[1]v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error lost its unwrap: %v", err)
	}
	// The session's SET statement_timeout bounds an autocommit mutation too:
	// the UPDATE waits on the same held X lock past its budget.
	tx = db.Begin()
	if _, err := tx.Exec(ctx, "UPDATE t SET amount = amount + 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	// The lock goes after 5 s whatever happens: an UPDATE the timeout does
	// not bound then succeeds, and the row fails instead of hanging.
	release := sync.OnceFunc(tx.Rollback)
	time.AfterFunc(5*time.Second, release)
	_, err = conn.Exec(ctx, "SET statement_timeout = 25; UPDATE t SET amount = 0 WHERE id = 1")
	release()
	if !errors.As(err, &de) {
		t.Fatalf("mutation timeout: got %[1]T %[1]v", err)
	}
	if _, err := conn.Exec(ctx, "SET statement_timeout = 0"); err != nil {
		t.Fatal(err)
	}
	// The connection survived every one of those failures.
	r, err := conn.Query(ctx, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if all, err := r.All(); err != nil || all[0][0].I != 100 {
		t.Fatalf("connection unusable after errors: %v, %v", all, err)
	}
}

// TestServerConnLimit: connections over MaxConns are refused with a typed
// *OverloadedError at handshake.
func TestServerConnLimit(t *testing.T) {
	_, _, addr := startServer(t, 10, qpipe.Options{}, qpipe.ServerOptions{MaxConns: 1})
	ctx := context.Background()
	c1, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	var refused *qpipe.OverloadedError
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = client.Connect(ctx, addr)
		if errors.As(err, &refused) {
			break
		}
		// The first handler may not have registered active yet; retry
		// briefly rather than flake.
		if time.Now().After(deadline) {
			t.Fatalf("second connection: got %[1]T %[1]v, want *OverloadedError", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if refused.MaxConcurrent != 1 {
		t.Fatalf("refusal carries MaxConcurrent=%d, want 1", refused.MaxConcurrent)
	}
	// Closing the first connection frees the slot.
	c1.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Connect(ctx, addr)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerClientDisconnectMidStream: a client vanishing mid-stream must
// cancel the query server-side and release everything it held — the
// in-flight gauge returns to zero and no temp files remain.
func TestServerClientDisconnectMidStream(t *testing.T) {
	srv, db, addr := startServer(t, 20_000, qpipe.Options{}, qpipe.ServerOptions{})
	// Slow the disk so the stream is still in flight when we sever it.
	db.SetDiskLatency(30*time.Microsecond, 50*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	// A big sort keeps temp files in play mid-stream.
	rows, err := conn.Query(ctx, "SELECT id, note FROM t ORDER BY amount DESC", client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	// Hard close: no Cancel frame, no Quit — the socket just dies.
	conn.Close()

	// The server must notice, cancel the query, release its locks, clean
	// up its temp files and end the connection's handler (whose deferred
	// calls may run after the query's cleanup).
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := db.Stats()
		tmp := qpipe.DiskOf(db).FilesWithPrefix("tmp:")
		conns := srv.Stats().ActiveConns
		if st.InFlight == 0 && st.AdmissionQueued == 0 && len(tmp) == 0 && conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect did not clean up: in-flight=%d queued=%d tmp=%v active conns=%d",
				st.InFlight, st.AdmissionQueued, tmp, conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server keeps serving new connections.
	conn2, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	r, err := conn2.Query(ctx, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if all, err := r.All(); err != nil || all[0][0].I != 20_000 {
		t.Fatalf("post-disconnect query: %v, %v", all, err)
	}
	if srv.Stats().ActiveConns != 1 {
		t.Fatalf("active conns = %d, want 1", srv.Stats().ActiveConns)
	}
}

// TestServerCancelMidStream: the protocol-level cancel (Rows.Close) aborts
// the query and leaves the connection reusable.
func TestServerCancelMidStream(t *testing.T) {
	_, db, addr := startServer(t, 20_000, qpipe.Options{}, qpipe.ServerOptions{})
	db.SetDiskLatency(20*time.Microsecond, 30*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rows, err := conn.Query(ctx, "SELECT id FROM t ORDER BY amount", client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Same connection, next query: works.
	r, err := conn.Query(ctx, "SELECT count(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if all, err := r.All(); err != nil || all[0][0].I != 20_000 {
		t.Fatalf("post-cancel query: %v, %v", all, err)
	}
	// Leases drained server-side.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := db.Stats()
		if st.InFlight == 0 && len(qpipe.DiskOf(db).FilesWithPrefix("tmp:")) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel did not clean up: in-flight=%d", st.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDrainWithInFlightStream: Shutdown while a stream is in flight
// must not hang; the client sees either a clean completion or a typed
// error, and Serve returns nil.
func TestServerDrainWithInFlightStream(t *testing.T) {
	srv, db, addr := startServer(t, 20_000, qpipe.Options{DrainTimeout: 500 * time.Millisecond},
		qpipe.ServerOptions{ShutdownGrace: 5 * time.Second})
	db.SetDiskLatency(20*time.Microsecond, 30*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	ctx := context.Background()
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rows, err := conn.Query(ctx, "SELECT id FROM t ORDER BY amount", client.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown() // idempotent with the cleanup's call
		close(shutdownDone)
	}()

	// Keep consuming: the stream either completes (drain let it finish) or
	// fails with the engine's cancellation/closed error — never hangs, never
	// panics.
	_, derr := rows.Discard()
	if derr != nil {
		ok := errors.Is(derr, context.Canceled) || errors.Is(derr, qpipe.ErrClosed) ||
			errors.Is(derr, io.EOF) || errors.Is(derr, io.ErrUnexpectedEOF) ||
			strings.Contains(derr.Error(), "cancel")
		var de *qpipe.DeadlineError
		var ne net.Error
		ok = ok || errors.As(derr, &de) || errors.As(derr, &ne)
		if !ok {
			t.Fatalf("drain surfaced an ungoverned error: %[1]T %[1]v", derr)
		}
	}
	select {
	case <-shutdownDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung with an in-flight stream")
	}
	// New connections are refused once drained (accept loop closed).
	if _, err := client.Connect(ctx, addr); err == nil {
		t.Fatal("connect succeeded after Shutdown")
	}
}

// TestServerShutdownMidRead: Shutdown while clients are halfway through
// sending a frame, and hanging up at the same moment. The handler's shutdown
// branch and the read loop's failure path run concurrently; under -race this
// fails if the handler looks at the read loop's error before the frames
// channel has published it.
func TestServerShutdownMidRead(t *testing.T) {
	srv, _, addr := startServer(t, 10, qpipe.Options{}, qpipe.ServerOptions{ShutdownGrace: 5 * time.Second})
	const conns = 16
	ncs := make([]net.Conn, conns)
	for i := range ncs {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		hello := wire.Hello{Version: wire.ProtocolVersion, Client: "raw"}
		if err := wire.WriteFrame(nc, wire.MsgHello, hello.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if mt, _, _, err := wire.ReadFrame(nc, nil); err != nil || mt != wire.MsgWelcome {
			t.Fatalf("handshake: %v %v", mt, err)
		}
		// A frame header promising 64 bytes, then only its type byte: the
		// server's read loop blocks inside ReadFrame.
		if _, err := nc.Write([]byte{0, 0, 0, 64, byte(wire.MsgQuery)}); err != nil {
			t.Fatal(err)
		}
		ncs[i] = nc
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, nc := range ncs {
			nc.Close()
		}
	}()
	srv.Shutdown()
	wg.Wait()
	if n := srv.Stats().ActiveConns; n != 0 {
		t.Fatalf("%d connections still active after Shutdown", n)
	}
}

// TestServerMalformedFrames: protocol violations get a typed error frame
// (where a response is still possible) and a closed connection — never a
// panic, never a hang.
func TestServerMalformedFrames(t *testing.T) {
	_, _, addr := startServer(t, 10, qpipe.Options{}, qpipe.ServerOptions{})

	dial := func() net.Conn {
		t.Helper()
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return nc
	}
	handshake := func(nc net.Conn) {
		t.Helper()
		hello := wire.Hello{Version: wire.ProtocolVersion, Client: "raw"}
		if err := wire.WriteFrame(nc, wire.MsgHello, hello.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		mt, _, _, err := wire.ReadFrame(nc, nil)
		if err != nil || mt != wire.MsgWelcome {
			t.Fatalf("handshake: %v %v", mt, err)
		}
	}
	expectProtocolError := func(nc net.Conn) {
		t.Helper()
		// The server sends a CodeProtocol error frame (best effort) and
		// closes. Reading to EOF must yield at most that one frame.
		for {
			mt, payload, _, err := wire.ReadFrame(nc, nil)
			if err != nil {
				return // closed — fine
			}
			if mt != wire.MsgError {
				continue // residual frames of an earlier response
			}
			we, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatalf("undecodable error frame: %v", err)
			}
			if we.Code != wire.CodeProtocol {
				t.Fatalf("error code = %d, want CodeProtocol", we.Code)
			}
			return
		}
	}

	t.Run("garbage-hello", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		nc.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		// Either a protocol-error frame or a straight close; never a hang.
		expectProtocolError(nc)
	})
	t.Run("zero-length-frame", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		handshake(nc)
		nc.Write([]byte{0, 0, 0, 0})
		expectProtocolError(nc)
	})
	t.Run("oversized-frame", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		handshake(nc)
		nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
		expectProtocolError(nc)
	})
	t.Run("truncated-frame", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		handshake(nc)
		// Claims 100 bytes, delivers 3, then dies.
		nc.Write([]byte{0, 0, 0, 100, byte(wire.MsgQuery), 'S', 'E'})
		nc.Close()
	})
	t.Run("unknown-type", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		handshake(nc)
		wire.WriteFrame(nc, wire.MsgType(0xEE), nil)
		expectProtocolError(nc)
	})
	t.Run("version-mismatch", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		hello := wire.Hello{Version: 999, Client: "future"}
		wire.WriteFrame(nc, wire.MsgHello, hello.Encode(nil))
		expectProtocolError(nc)
	})
	t.Run("truncated-payload", func(t *testing.T) {
		nc := dial()
		defer nc.Close()
		handshake(nc)
		// A Query frame whose payload is valid framing but garbage content.
		wire.WriteFrame(nc, wire.MsgQuery, []byte{0xFF, 0xFF})
		expectProtocolError(nc)
	})
}

// TestServerConcurrentConns: many connections at once, each its own
// session; results do not interleave across sockets.
func TestServerConcurrentConns(t *testing.T) {
	_, _, addr := startServer(t, 2000, qpipe.Options{}, qpipe.ServerOptions{})
	ctx := context.Background()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := client.Connect(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < 5; i++ {
				r, err := conn.Query(ctx, fmt.Sprintf("SELECT count(*) AS n FROM t WHERE grp = %d", w%10))
				if err != nil {
					errs <- err
					return
				}
				all, err := r.All()
				if err != nil {
					errs <- err
					return
				}
				if len(all) != 1 || all[0][0].I != 200 {
					errs <- fmt.Errorf("worker %d: got %v, want 200", w, all)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerSharesWithAnEmbeddedQuery: OSP does not stop at the socket. An
// embedded query is held mid-scan by not reading its result; the same
// statement sent over the wire then attaches to it, which the wire's own
// osp_shares counter shows — and does not when the client opts out, whose
// decision share.osp-off counts instead. All three get the same rows.
func TestServerSharesWithAnEmbeddedQuery(t *testing.T) {
	_, db, addr := startServer(t, 3000, qpipe.Options{BufferCapacity: 2, ScanParallelism: 1}, qpipe.ServerOptions{})
	ctx := context.Background()
	const stmt = "SELECT id, amount FROM t"
	held, err := db.Query(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := held.Next() // mid-scan, and held there
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	counters, err := client.Connect(ctx, addr) // a connection is busy while its rows stream
	if err != nil {
		t.Fatal(err)
	}
	defer counters.Close()
	stat := func(name string) int64 {
		t.Helper()
		stats, err := counters.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return stats[name]
	}
	shares := func() int64 { return stat("osp_shares") }

	before, offBefore := shares(), stat("share.osp-off")
	alone, err := conn.Query(ctx, stmt, client.WithoutOSP())
	if err != nil {
		t.Fatal(err)
	}
	if got := shares() - before; got != 0 {
		t.Fatalf("osp_shares rose by %d for a query that opted out", got)
	}
	if got := stat("share.osp-off") - offBefore; got < 1 {
		t.Fatalf("share.osp-off rose by %d for a query that opted out", got)
	}
	aloneRows, err := alone.All() // nothing ties it to the held query
	if err != nil {
		t.Fatal(err)
	}
	riding, err := conn.Query(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := shares() - before; got < 1 {
		t.Fatalf("osp_shares rose by %d: the wire query did not attach to the embedded one", got)
	}
	rest := make(chan []qpipe.Row, 1)
	go func() {
		all, err := held.All()
		if err != nil {
			t.Error(err)
		}
		rest <- all
	}()
	ridingRows, err := riding.All()
	if err != nil {
		t.Fatal(err)
	}
	want := renderSorted(append(first, <-rest...))
	if len(want) != 3000 {
		t.Fatalf("embedded query returned %d rows, want 3000", len(want))
	}
	for name, got := range map[string][]qpipe.Row{"opted out": aloneRows, "attached": ridingRows} {
		if !equalRows(renderSorted(got), want) {
			t.Errorf("the %s wire query's %d rows differ from the embedded query's", name, len(got))
		}
	}
}

// countingConn counts the server side's system calls on one connection: a
// Write call each, and a Read call each that returned bytes.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands every accepted connection to the test as well.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// TestServerSyscallsPerReply counts the server's reads and writes on the
// socket: a request frame costs one read, and a one-row reply (RowDesc,
// RowBatch, Complete) at most three writes, whether the statement comes as
// text or as a prepared statement.
func TestServerSyscallsPerReply(t *testing.T) {
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadT(t, db, 2000)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := countingListener{Listener: inner, accepted: make(chan *countingConn, 1)}
	serveOn(t, db, qpipe.ServerOptions{}, ln)
	ctx := context.Background()
	conn, err := client.Connect(ctx, inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := <-ln.accepted
	stmt, err := conn.Prepare(ctx, "SELECT amount FROM t WHERE id = 17")
	if err != nil {
		t.Fatal(err)
	}
	reads0, writes0 := sc.reads.Load(), sc.writes.Load()
	for i := range 20 {
		reads, writes := sc.reads.Load(), sc.writes.Load()
		var res *client.Rows
		if i%2 == 0 {
			res, err = conn.Query(ctx, fmt.Sprintf("SELECT amount FROM t WHERE id = %d", i))
		} else {
			res, err = stmt.Query(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.All()
		if err != nil || len(got) != 1 {
			t.Fatalf("query %d: %d rows, err %v", i, len(got), err)
		}
		// The reply is in, so the server has read the request and made
		// every write of the reply.
		if n := sc.reads.Load() - reads; n != 1 {
			t.Errorf("query %d: the request frame took %d reads, want 1", i, n)
		}
		if n := sc.writes.Load() - writes; n > 3 {
			t.Errorf("query %d: a one-row reply took %d writes, want at most 3", i, n)
		}
	}
	t.Logf("20 one-row replies: %d reads, %d writes", sc.reads.Load()-reads0, sc.writes.Load()-writes0)
}

// TestServerFlushesBeforeItWaits pins the flush rule: RowDesc is on the wire
// before the server waits for the first batch. A held embedded scan pins
// table t's scanner; a count(*) sent over the wire rides that scanner and
// cannot produce its one row until the hold is released, yet Query returns
// (it reads RowDesc) while the hold is still in place. The deadlock
// detector is on: the connection is a reader of its own, so its wait and the
// held result close no cycle. The timeout only guards against a hang.
func TestServerFlushesBeforeItWaits(t *testing.T) {
	const n = 3000
	db, err := qpipe.Open(qpipe.Options{BufferCapacity: 2, ScanParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	loadT(t, db, n)
	_, addr := serveDB(t, db, qpipe.ServerOptions{})
	ctx := context.Background()
	held, err := db.Query(ctx, "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	first, err := held.Next() // mid-scan, and held there
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	shares := db.TotalShares()
	type reply struct {
		rows *client.Rows
		err  error
	}
	started := make(chan reply, 1)
	go func() {
		rows, err := conn.Query(ctx, "SELECT count(*) AS n FROM t")
		started <- reply{rows, err}
	}()
	var r reply
	select {
	case r = <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("Query did not return while the table was held: RowDesc was not flushed before the wait")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for deadline := time.Now().Add(10 * time.Second); db.TotalShares() == shares; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the count(*) never attached to the held scanner")
		}
	}
	if v, pages := held.Stats().PagesVisited.Load(), cpHeapPages(t, db, "t"); v >= pages {
		t.Fatalf("the held scan visited %d of %d pages before its release: nothing was held", v, pages)
	}
	rest, err := held.All() // release the hold
	if err != nil {
		t.Fatal(err)
	}
	if got := len(first) + len(rest); got != n {
		t.Fatalf("the held scan returned %d rows, want %d", got, n)
	}
	got, err := r.rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].I != n {
		t.Fatalf("count(*) = %v, want [[%d]]", got, n)
	}
}

// TestReadersAreNodesOfTheWaitsForGraph: the deadlock detector (§4.3.3)
// sees every server connection as a reader of its own — the consumer of its
// results' buffers — and every embedded Result, bare or under a Session, as
// node 0. Two wire clients waiting on one held embedded scan close no cycle,
// so nothing is materialized however many periods the detector looks; a
// thread that holds one result while it waits on another does close one,
// however the two were submitted, and so do two threads that read two held
// scans in opposite orders: the detector lifts a bound to break it. Every
// answer is the iterator engine's. A hang fails every statement at its
// deadline.
func TestReadersAreNodesOfTheWaitsForGraph(t *testing.T) {
	const n = 3000
	for _, row := range []struct {
		name     string
		deadlock bool // a real cycle through the readers, which must be broken
		run      func(w *wfgEnv)
	}{
		{"two wire clients ride a held embedded scan", false, func(w *wfgEnv) {
			held := w.send(nil, "SELECT id FROM t")
			texts := []string{"SELECT count(*) AS n FROM t", "SELECT sum(amount) AS s FROM t"}
			replies := make([]*client.Rows, len(texts))
			for i, text := range texts {
				conn, err := client.Connect(w.ctx, w.addr)
				if err != nil {
					w.t.Fatal(err)
				}
				defer conn.Close()
				// Query returns once RowDesc is in: the server then waits on
				// a statement that rides the held scanner.
				if replies[i], err = conn.Query(w.ctx, text); err != nil {
					w.t.Fatal(err)
				}
			}
			w.rode(2)
			time.Sleep(10 * qpipe.DeadlockInterval(w.db))
			w.check(held)
			for i, text := range texts {
				got, err := replies[i].All()
				w.same(text, got, err)
			}
		}},
		{"one thread holds A and waits on B", true, func(w *wfgEnv) {
			a := w.send(nil, "SELECT id FROM t")
			w.check(w.send(nil, "SELECT count(*) AS n FROM t"))
			w.rode(1)
			w.check(a)
		}},
		{"one session holds A and waits on B", true, func(w *wfgEnv) {
			sess := &qpipe.Session{}
			a := w.send(sess, "SELECT id FROM t")
			w.check(w.send(sess, "SELECT count(*) AS n FROM t"))
			w.rode(1)
			w.check(a)
		}},
		{"one thread holds a bare A and waits on a session's B", true, func(w *wfgEnv) {
			a := w.send(nil, "SELECT id FROM t")
			w.check(w.send(&qpipe.Session{}, "SELECT count(*) AS n FROM t"))
			w.rode(1)
			w.check(a)
		}},
		{"one thread holds A under one session and waits on B under another", true, func(w *wfgEnv) {
			a := w.send(&qpipe.Session{}, "SELECT id FROM t")
			w.check(w.send(&qpipe.Session{}, "SELECT count(*) AS n FROM t"))
			w.rode(1)
			w.check(a)
		}},
		{"two sessions read two scans in opposite orders", true, func(w *wfgEnv) {
			s1, s2 := &qpipe.Session{}, &qpipe.Session{}
			a1 := w.send(s1, "SELECT id FROM t")
			b2 := w.send(s2, "SELECT id FROM u")
			b1 := w.send(s1, "SELECT grp FROM u")
			a2 := w.send(s2, "SELECT grp FROM t")
			var wg sync.WaitGroup
			for _, order := range [][2]*qpipe.Result{{b1, a1}, {a2, b2}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, res := range order {
						w.check(res)
					}
				}()
			}
			wg.Wait()
			w.rode(2)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			db, err := qpipe.Open(qpipe.Options{BufferCapacity: 2, ScanParallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(db.Close)
			loadT(t, db, n)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if _, err := db.Exec(ctx, "CREATE TABLE u (id INT, grp INT)"); err != nil {
				t.Fatal(err)
			}
			rows := make([]qpipe.Row, n)
			for i := range rows {
				rows[i] = qpipe.R(i, i%7)
			}
			if err := db.Load("u", rows); err != nil {
				t.Fatal(err)
			}
			_, addr := serveDB(t, db, qpipe.ServerOptions{})
			w := &wfgEnv{t: t, ctx: ctx, db: db, addr: addr, shares: db.TotalShares(),
				texts: map[*qpipe.Result]string{}, want: map[string][]string{}}
			for _, text := range []string{"SELECT id FROM t", "SELECT id FROM u", "SELECT grp FROM t", "SELECT grp FROM u",
				"SELECT count(*) AS n FROM t", "SELECT sum(amount) AS s FROM t"} {
				w.want[text] = skVolcano(t, db, cpPlan(t, db, text))
			}
			before := db.Stats()
			row.run(w)
			after := db.Stats()
			seen, mat := after.DeadlocksSeen-before.DeadlocksSeen, after.Materialized-before.Materialized
			if row.deadlock && (seen < 1 || mat < 1) {
				t.Fatalf("a real cycle through the readers: %d deadlocks seen, %d buffers materialized, want >= 1", seen, mat)
			}
			if !row.deadlock && (seen != 0 || mat != 0) {
				t.Fatalf("no cycle, yet %d deadlocks seen and %d buffers materialized", seen, mat)
			}
		})
	}
}

// wfgEnv is one row's database, what its readers sent, and the iterator
// engine's answers.
type wfgEnv struct {
	t      *testing.T
	ctx    context.Context
	db     *qpipe.DB
	addr   string
	shares int64
	mu     sync.Mutex
	texts  map[*qpipe.Result]string
	want   map[string][]string
}

// send runs text under sess (nil: a bare Result). A scan of a whole table's
// ids is waited for until it is held — its result unread and full, its scan
// blocked; every result is read later.
func (w *wfgEnv) send(sess *qpipe.Session, text string) *qpipe.Result {
	w.t.Helper()
	res, err := w.db.QuerySession(w.ctx, sess, text)
	if err != nil {
		w.t.Fatalf("%s: %v", text, err)
	}
	w.mu.Lock()
	w.texts[res] = text
	w.mu.Unlock()
	if strings.HasPrefix(text, "SELECT id ") {
		for !skHeld(res) {
			if w.ctx.Err() != nil {
				w.t.Fatalf("%s was never held", text)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return res
}

// rode asserts that k statements shared a held scan, or the row tested
// nothing.
func (w *wfgEnv) rode(k int64) {
	w.t.Helper()
	if got := w.db.TotalShares() - w.shares; got < k {
		w.t.Errorf("%d of %d statements rode a held scan", got, k)
	}
}

// check reads res to its end and compares it with the iterator engine.
func (w *wfgEnv) check(res *qpipe.Result) {
	got, err := res.All()
	w.mu.Lock()
	text := w.texts[res]
	w.mu.Unlock()
	w.same(text, got, err)
}

func (w *wfgEnv) same(text string, got []qpipe.Row, err error) {
	if err != nil {
		w.t.Errorf("%s: %v", text, err)
		return
	}
	if g, want := apSorted(got), w.want[text]; !slices.Equal(g, want) {
		w.t.Errorf("%s: %d rows, the iterator engine %d", text, len(g), len(want))
	}
}
