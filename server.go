// Server: the network front end. It owns a TCP listener, one goroutine per
// connection, and one qpipe.Session per connection (SET statements arriving
// as Query frames adjust it), translating wire frames into the embedded
// API. The interesting part is the row streamer: each batch Result.Next
// returns is encoded row by row into one frame (wire.AppendRowBatch, the
// page layer's binary form) and then left to the garbage collector, like
// every batch array. Frames queue in one
// buffered writer per connection, flushed only when the handler is about to
// wait. The paper's multi-query concurrency — the traffic OSP
// needs to pay off — thus arrives over real sockets, while admission
// control, statement timeouts and graceful drain (PR 8) govern it
// engine-side.
package qpipe

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qpipe/internal/core"
	"qpipe/sql"
	"qpipe/wire"
)

// ServerOptions configures a Server. The zero value serves on the DB's
// defaults with no connection limit.
type ServerOptions struct {
	// MaxConns caps concurrent client connections (0 = unlimited). The
	// cap is checked at handshake: over-limit connections are refused with
	// a CodeOverloaded error before any query runs, layering on the
	// engine's MaxConcurrentQueries which governs queries, not sockets.
	MaxConns int
	// Banner is the human-readable server identification sent in Welcome.
	Banner string
	// ShutdownGrace bounds how long Shutdown waits for per-connection
	// handlers to finish after the engine drain, before force-closing
	// their sockets (0 = 5s).
	ShutdownGrace time.Duration
	// Logf receives connection-level diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// ServerStats aggregates server-wide counters. Snapshot via Server.Stats.
type ServerStats struct {
	// ConnsAccepted counts connections accepted since start.
	ConnsAccepted int64
	// ConnsRefused counts connections refused at the MaxConns limit.
	ConnsRefused int64
	// ActiveConns is a gauge of connections currently being served.
	ActiveConns int64
	// QueriesServed counts Query/Execute requests that reached the engine.
	QueriesServed int64
	// RowsSent counts result rows streamed to clients.
	RowsSent int64
	// BatchesSent counts RowBatch frames streamed to clients.
	BatchesSent int64
	// ErrorsSent counts MsgError frames sent (shed, timeout, parse, ...).
	ErrorsSent int64
	// ProtocolErrors counts connections dropped for wire-protocol
	// violations (malformed frames, handshake mismatches).
	ProtocolErrors int64
}

// Server serves a DB over a TCP listener speaking the qpipe/wire protocol.
// Create one with NewServer, start it with Serve or ListenAndServe, stop it
// with Shutdown. All methods are safe for concurrent use.
type Server struct {
	db   *DB
	opts ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	// shutdown is closed when Shutdown begins: handlers treat it as "stop
	// after the in-flight request".
	shutdown chan struct{}
	wg       sync.WaitGroup

	connsAccepted  atomic.Int64
	connsRefused   atomic.Int64
	activeConns    atomic.Int64
	queriesServed  atomic.Int64
	rowsSent       atomic.Int64
	batchesSent    atomic.Int64
	errorsSent     atomic.Int64
	protocolErrors atomic.Int64
}

// NewServer wraps db in a wire-protocol server. The db stays usable
// embedded-side; Shutdown closes it.
func NewServer(db *DB, opts ServerOptions) *Server {
	if opts.Banner == "" {
		opts.Banner = "qpipe-server"
	}
	if opts.ShutdownGrace == 0 {
		opts.ShutdownGrace = 5 * time.Second
	}
	return &Server{
		db:       db,
		opts:     opts,
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
	}
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it, spawning one
// handler goroutine per connection. It returns nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.shutdown:
				return nil
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.connsAccepted.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Addr returns the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Stats snapshots the server-wide counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ConnsAccepted:  s.connsAccepted.Load(),
		ConnsRefused:   s.connsRefused.Load(),
		ActiveConns:    s.activeConns.Load(),
		QueriesServed:  s.queriesServed.Load(),
		RowsSent:       s.rowsSent.Load(),
		BatchesSent:    s.batchesSent.Load(),
		ErrorsSent:     s.errorsSent.Load(),
		ProtocolErrors: s.protocolErrors.Load(),
	}
}

// Shutdown stops the server gracefully: the listener closes (no new
// connections), the DB drains via Close (in-flight queries finish within
// the engine's DrainTimeout, new ones are rejected with ErrClosed), then
// connection handlers get ShutdownGrace to send their final frames before
// stragglers are force-closed. Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.shutdown)
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()

	// Drain the engine: streams in flight either complete or end with
	// a cancellation the handler forwards as a typed error frame.
	s.db.Close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.opts.ShutdownGrace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// track registers a live connection for Shutdown's force-close pass;
// returns false if the server is already shutting down.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// ---- Per-connection handler --------------------------------------------------

// connWriteBuffer is the size of a connection's write buffer: a whole
// point-lookup reply and a few row batches of a stream fit in it.
const connWriteBuffer = 16 << 10

// serverConn is the per-connection state: the socket with its buffered
// reader and writer, its session, its prepared statements, and the reusable
// encode buffer.
type serverConn struct {
	srv  *Server
	conn net.Conn
	// r is the socket's one reader (the handshake's, then readLoop's), so
	// a request frame costs one read. w queues the handler's frames; it is
	// flushed only before the handler waits (see stream and run).
	r *bufio.Reader
	w *bufio.Writer

	sess  Session
	stmts map[uint32]*Query

	// ctx is the connection's lifetime: cancelled when the peer goes away
	// (read loop error) or the server shuts down. In-flight queries run
	// under it, so a mid-stream disconnect cancels the query and releases
	// its locks.
	ctx    context.Context
	cancel context.CancelFunc

	// frames delivers (copied) incoming frames from the read-loop
	// goroutine; readErr holds its terminal error once closed, and is read
	// only after a receive has seen the close.
	frames  chan frame
	readErr error

	// encBuf: frames are encoded into encBuf, header first (c.frame), and
	// written by the handler goroutine only.
	encBuf []byte
}

type frame struct {
	t       wire.MsgType
	payload []byte
}

// handle owns one connection from accept to close.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return // raced with Shutdown: the engine is draining
	}
	defer s.untrack(conn)
	s.activeConns.Add(1)
	defer s.activeConns.Add(-1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &serverConn{
		srv:    s,
		conn:   conn,
		r:      bufio.NewReader(conn),
		w:      bufio.NewWriterSize(conn, connWriteBuffer),
		encBuf: make([]byte, 0, 512),
		stmts:  make(map[uint32]*Query),
		ctx:    ctx,
		cancel: cancel,
		frames: make(chan frame, 4),
	}
	// The connection is one node of the deadlock detector's Waits-For
	// graph: this goroutine alone reads its results.
	c.sess.reader = core.NewReader()
	// A disconnect mid-transaction must not leak the transaction's table
	// locks: roll back whatever the session left open.
	defer c.sess.Close()
	if err := c.run(); err != nil {
		var pe *wire.ProtocolError
		if errors.As(err, &pe) {
			s.protocolErrors.Add(1)
			// Best-effort: tell the peer why before hanging up.
			c.sendError(pe)
		}
		if err != io.EOF {
			s.logf("conn %s: %v", conn.RemoteAddr(), err)
		}
	}
	c.w.Flush() // best-effort: a refusal or a protocol error's frame
}

// run performs the handshake then serves requests until the peer quits,
// errors, or the server drains.
func (c *serverConn) run() error {
	if err := c.handshake(); err != nil {
		return err
	}
	// After the handshake, a dedicated goroutine owns reads: it feeds
	// frames to the handler and cancels the connection context on read
	// failure, so a client disconnect mid-stream aborts the in-flight
	// query rather than leaving it producing into a dead socket.
	go c.readLoop()
	for {
		// The handler is about to wait for a request: what it queued (the
		// Welcome, or the last request's whole reply) goes out now.
		if err := c.w.Flush(); err != nil {
			return err
		}
		var f frame
		var ok bool
		select {
		case f, ok = <-c.frames:
		case <-c.srv.shutdown:
			// Engine drain in progress: serve what is already queued, then
			// stop. Queries already streaming were cancelled by db.Close.
			select {
			case f, ok = <-c.frames:
			default:
				// Nothing queued, and frames is not closed: readLoop may be
				// writing readErr this instant, so it is not looked at.
				return io.EOF
			}
		}
		if !ok {
			// frames is closed, and readLoop set readErr before closing it.
			if c.readErr == io.EOF {
				return io.EOF
			}
			select {
			case <-c.srv.shutdown:
				return io.EOF // server-initiated close, not a peer error
			default:
			}
			return c.readErr
		}
		if done, err := c.serve(f); done || err != nil {
			return err
		}
	}
}

// handshake reads Hello and answers Welcome (or a versioned refusal). The
// connection limit is enforced here so a refused client gets a typed error,
// not a silent close.
func (c *serverConn) handshake() error {
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	t, payload, _, err := wire.ReadFrame(c.r, nil)
	c.conn.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	if t != wire.MsgHello {
		return &wire.ProtocolError{Reason: fmt.Sprintf("expected Hello, got %s", t)}
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		return err
	}
	if hello.Version != wire.ProtocolVersion {
		c.sendError(&wire.ProtocolError{Reason: fmt.Sprintf(
			"protocol version mismatch: client %d, server %d", hello.Version, wire.ProtocolVersion)})
		return &wire.ProtocolError{Reason: fmt.Sprintf("client version %d unsupported", hello.Version)}
	}
	if max := c.srv.opts.MaxConns; max > 0 && c.srv.activeConns.Load() > int64(max) {
		c.srv.connsRefused.Add(1)
		c.sendError(&OverloadedError{MaxConcurrent: max})
		return fmt.Errorf("connection limit reached (%d): %s refused", max, c.conn.RemoteAddr())
	}
	w := wire.Welcome{Version: wire.ProtocolVersion, Banner: c.srv.opts.Banner}
	return c.send(wire.MsgWelcome, w.Encode(c.frame()))
}

// readLoop reads frames off the socket, copies their payloads (the handler
// consumes them asynchronously) and delivers them until the peer goes away.
func (c *serverConn) readLoop() {
	var buf []byte
	for {
		t, payload, b, err := wire.ReadFrame(c.r, buf)
		buf = b
		if err != nil {
			c.readErr = err
			close(c.frames)
			// The peer is gone (or sent garbage): abort any in-flight
			// query so its locks and temp files release now.
			c.cancel()
			return
		}
		select {
		case c.frames <- frame{t: t, payload: append([]byte(nil), payload...)}:
		case <-c.ctx.Done():
			// The handler is gone (protocol error, shutdown): stop reading
			// rather than blocking forever on a send nobody receives.
			return
		}
	}
}

// serve dispatches one request frame. done reports a clean Quit.
func (c *serverConn) serve(f frame) (done bool, err error) {
	switch f.t {
	case wire.MsgQuery:
		q, err := wire.DecodeQuery(f.payload)
		if err != nil {
			return false, err
		}
		return false, c.serveQuery(q)
	case wire.MsgPrepare:
		p, err := wire.DecodePrepare(f.payload)
		if err != nil {
			return false, err
		}
		return false, c.servePrepare(p)
	case wire.MsgExecute:
		e, err := wire.DecodeExecute(f.payload)
		if err != nil {
			return false, err
		}
		return false, c.serveExecute(e)
	case wire.MsgExec:
		e, err := wire.DecodeExec(f.payload)
		if err != nil {
			return false, err
		}
		return false, c.serveExec(e)
	case wire.MsgCloseStmt:
		cs, err := wire.DecodeCloseStmt(f.payload)
		if err != nil {
			return false, err
		}
		delete(c.stmts, cs.ID)
		return false, c.sendComplete(0)
	case wire.MsgStats:
		if len(f.payload) != 0 {
			return false, &wire.ProtocolError{Reason: "Stats carries no payload"}
		}
		return false, c.serveStats()
	case wire.MsgCancel:
		// No query in flight (mid-stream cancels are consumed by the
		// streamer): acknowledge-free no-op, matching a cancel that
		// arrives just after completion.
		return false, nil
	case wire.MsgQuit:
		return true, nil
	default:
		return false, &wire.ProtocolError{Reason: fmt.Sprintf("unexpected %s frame", f.t)}
	}
}

// wireOptions renders a request's wire options as per-query options; they
// apply after the session's settings, so they win (SET-then-override).
func wireOptions(o wire.ExecOpts) []QueryOption {
	var opts []QueryOption
	if o.TimeoutMs > 0 {
		opts = append(opts, WithTimeout(time.Duration(o.TimeoutMs)*time.Millisecond))
	}
	if o.Parallelism > 0 {
		opts = append(opts, WithParallelism(int(o.Parallelism)))
	}
	if o.BatchSize > 0 {
		opts = append(opts, WithBatchSize(int(o.BatchSize)))
	}
	if o.NoOSP {
		opts = append(opts, WithoutOSP())
	}
	return opts
}

// serveQuery answers a MsgQuery through the router under the connection's
// session: SET folds into it (bare Complete), SELECT/EXPLAIN stream a
// result, anything else is the typed StatementError the embedded API gives.
func (c *serverConn) serveQuery(q wire.Query) error {
	stmt, err := sql.Parse(q.SQL)
	if err == nil {
		err = queryKind(stmt)
	}
	if err != nil {
		return c.sendError(err)
	}
	if _, set := stmt.(*sql.Set); !set {
		c.srv.queriesServed.Add(1)
	}
	res, _, err := c.srv.db.runStmt(c.ctx, &c.sess, stmt, wireOptions(q.Opts))
	if err != nil {
		return c.sendError(err)
	}
	if res == nil {
		return c.sendComplete(0)
	}
	return c.stream(res)
}

// servePrepare compiles a SELECT and parks it under a connection-local id.
func (c *serverConn) servePrepare(p wire.Prepare) error {
	q, err := c.srv.db.Prepare(p.SQL)
	if err != nil {
		return c.sendError(err)
	}
	id := uint32(len(c.stmts) + 1)
	for c.stmts[id] != nil { // ids are never reused within a connection
		id++
	}
	c.stmts[id] = q
	msg := wire.Prepared{ID: id, Desc: rowDesc(q.Schema())}
	return c.send(wire.MsgPrepared, msg.Encode(c.frame()))
}

// serveExecute runs a prepared statement.
func (c *serverConn) serveExecute(e wire.Execute) error {
	q, ok := c.stmts[e.ID]
	if !ok {
		return c.sendError(&StatementError{Stmt: "EXECUTE",
			Reason: fmt.Sprintf("unknown prepared statement id %d", e.ID)})
	}
	c.srv.queriesServed.Add(1)
	res, err := q.runIn(c.ctx, &c.sess, wireOptions(e.Opts))
	if err != nil {
		return c.sendError(err)
	}
	return c.stream(res)
}

// serveExec runs a DDL/DML script through the router under the session —
// so remote BEGIN/COMMIT/ROLLBACK control a per-connection transaction —
// and answers with the affected count.
func (c *serverConn) serveExec(e wire.Exec) error {
	n, err := c.srv.db.ExecSession(c.ctx, &c.sess, e.SQL)
	if err != nil {
		return c.sendError(err)
	}
	return c.sendComplete(n)
}

// serveStats answers MsgStats with the server's counter set: engine,
// sharing (osp_shares, and share.<reason> for every attach decision),
// governance, disk and server-wide counters under stable names.
func (c *serverConn) serveStats() error {
	es := c.srv.db.Stats()
	ds := c.srv.db.DiskStats()
	ss := c.srv.Stats()
	msg := wire.StatsResult{Stats: []wire.Stat{
		{Name: "engine_queries", Value: es.Queries},
		{Name: "osp_shares", Value: c.srv.db.TotalShares()},
		{Name: "deadlocks_seen", Value: es.DeadlocksSeen},
		{Name: "materialized", Value: es.Materialized},
		{Name: "in_flight", Value: es.InFlight},
		{Name: "admission_queued", Value: es.AdmissionQueued},
		{Name: "shed", Value: es.Shed},
		{Name: "deadline_timeouts", Value: es.DeadlineTimeouts},
		{Name: "panics", Value: es.Panics},
		{Name: "disk_reads", Value: ds.Reads},
		{Name: "disk_seq_reads", Value: ds.SeqReads},
		{Name: "disk_writes", Value: ds.Writes},
		{Name: "conns_accepted", Value: ss.ConnsAccepted},
		{Name: "conns_refused", Value: ss.ConnsRefused},
		{Name: "active_conns", Value: ss.ActiveConns},
		{Name: "queries_served", Value: ss.QueriesServed},
		{Name: "rows_sent", Value: ss.RowsSent},
		{Name: "batches_sent", Value: ss.BatchesSent},
		{Name: "errors_sent", Value: ss.ErrorsSent},
		{Name: "protocol_errors", Value: ss.ProtocolErrors},
		{Name: "scan.pages_visited", Value: es.PagesVisited},
		{Name: "scan.pages_located", Value: es.PagesLocated},
	}}
	for why, n := range es.HandOvers {
		msg.Stats = append(msg.Stats, wire.Stat{Name: "handover." + HandOver(why).String(), Value: n})
	}
	for why, n := range es.Shares {
		msg.Stats = append(msg.Stats, wire.Stat{Name: "share." + ShareDecision(why).String(), Value: n})
	}
	return c.send(wire.MsgStatsResult, msg.Encode(c.frame()))
}

// stream sends a result as RowDesc, RowBatch*, Complete: each row of a
// batch from Next is encoded into a RowBatch frame (wire.AppendRowBatch).
// Frames queue in c.w, which is flushed only before a wait: before a
// Next that has nothing ready (so RowDesc and the batches so far are on the
// wire while the engine works) and, by run, at the end of the reply. A
// one-row reply therefore costs at most three writes: RowDesc before the
// wait for the batch, the batch before the wait for the end, Complete. A
// MsgCancel arriving between batches aborts the query; the client then sees
// its terminal error frame.
func (c *serverConn) stream(res *Result) error {
	// fail gives up on a connection that cannot be written to: cancel and
	// fully drain the query so every lock and temp file is released
	// before we hang up.
	fail := func(err error) error {
		res.Cancel()
		drainResult(res)
		return err
	}
	desc := rowDesc(res.Schema())
	if err := c.send(wire.MsgRowDesc, desc.Encode(c.frame())); err != nil {
		return fail(err)
	}
	var rows int64
	for {
		// Between batches: consume a pending Cancel (or notice the peer
		// vanished — readLoop cancelled c.ctx, the engine is tearing the
		// query down and Next will surface its terminal error).
		select {
		case f, ok := <-c.frames:
			if ok && f.t == wire.MsgCancel {
				res.Cancel()
			} else if ok {
				return fail(&wire.ProtocolError{Reason: fmt.Sprintf(
					"%s frame while a result was streaming", f.t)})
			}
		default:
		}
		if !res.ready() {
			if err := c.w.Flush(); err != nil {
				return fail(err)
			}
		}
		b, err := res.Next()
		if err == io.EOF {
			if ferr := res.finish(); ferr != nil {
				return c.sendError(ferr)
			}
			return c.sendComplete(rows)
		}
		if err != nil {
			return c.sendError(err)
		}
		frame := wire.AppendRowBatch(c.frame(), b)
		rows += int64(len(b))
		if err := c.send(wire.MsgRowBatch, frame); err != nil {
			return fail(err)
		}
		c.srv.batchesSent.Add(1)
		c.srv.rowsSent.Add(int64(len(b)))
	}
}

// drainResult consumes a cancelled result to its end so buffers tear down.
func drainResult(res *Result) {
	for {
		if _, err := res.Next(); err != nil {
			return
		}
	}
}

// rowDesc renders a result schema as the wire's RowDesc.
func rowDesc(s *Schema) wire.RowDesc {
	if s == nil {
		return wire.RowDesc{}
	}
	cols := make([]wire.Col, len(s.Cols))
	for i, col := range s.Cols {
		cols[i] = wire.Col{Name: col.Name, Kind: col.Kind}
	}
	return wire.RowDesc{Cols: cols}
}

// frame starts a frame in c.encBuf: the header's bytes are left free and
// the caller appends the payload behind them.
func (c *serverConn) frame() []byte {
	return c.encBuf[:wire.HeaderSize]
}

// send queues one frame built on c.frame(). A frame never straddles two
// writes: one that does not fit what is left of the buffer flushes what is
// queued first, and one larger than the whole buffer then goes to the
// socket in a single write of its own.
func (c *serverConn) send(t wire.MsgType, frame []byte) error {
	if cap(frame) > cap(c.encBuf) {
		c.encBuf = frame[:0]
	}
	if err := wire.PutHeader(frame, t); err != nil {
		return err
	}
	if len(frame) > c.w.Available() && c.w.Buffered() > 0 {
		if err := c.w.Flush(); err != nil {
			return err
		}
	}
	_, err := c.w.Write(frame)
	return err
}

// sendComplete ends a successful request.
func (c *serverConn) sendComplete(rows int64) error {
	msg := wire.Complete{Rows: rows}
	return c.send(wire.MsgComplete, msg.Encode(c.frame()))
}

// sendError ends a failed request with the marshalled typed error.
func (c *serverConn) sendError(err error) error {
	c.srv.errorsSent.Add(1)
	return c.send(wire.MsgError, MarshalWireError(err).Encode(c.frame()))
}
