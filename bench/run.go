package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/sql"
)

// config is one run's settings, from the command line.
type config struct {
	seed    int64
	seconds float64 // measured time per workload
	traced  bool    // second half of the time is the traced window
	noOSP   bool
	setups  int    // set-ups per run; setup_s is their median
	outDir  string // data directories and trace files go here
}

const (
	slices     = 3 // the untraced window is also reported in this many parts
	warmRounds = 3 // warm-up: every connection runs each of its classes this often
)

// instance is one set-up system: a DB, its in-process server and the
// client connections that drive it, the path a remote application takes.
type instance struct {
	w      *workload
	cfg    config
	db     *qpipe.DB
	srv    *qpipe.Server
	served chan error
	conns  []*conn
	ref    *reference // nil during the set-ups that are only timed
	dir    string     // durable directory, "" when in memory

	// Writer bookkeeping (tx_beside_reads). One connection writes, so only
	// the two counters the reader consults are atomic.
	attempted, acked atomic.Int64
	nextEID          int64
	incr             []int32 // acknowledged increments per account
	eventsWant       digest  // events as acknowledged commits leave it
	sinceCkpt        int
	ckptMS, ckptMB   []float64
}

type sample struct {
	class int
	dur   time.Duration
	end   time.Duration // since the window began
}

type prepared struct {
	aid  int64
	stmt *client.Stmt
	q    *qpipe.Query // embedded twin, for the staged execution
}

// conn is one closed-loop client: it sends its next statement when the
// previous reply is fully drained.
type conn struct {
	in       *instance
	c        *client.Conn
	rng      *rand.Rand
	classes  []int
	opts     []client.Option
	eopts    []qpipe.QueryOption
	prepared []prepared
	rows     []qpipe.Row // reply buffer, reused
	tr       *tracer

	samples           []sample
	attempted, failed int64
	firstErr          error
}

// op is one drawn operation: the class, its literals and its text.
type op struct {
	class    int
	text     string
	prep     *prepared
	key, eid int64
}

// ---- set-up --------------------------------------------------------------------

// setUp builds an instance: open, load, index, ANALYZE, server start,
// connects, prepares and a warm-up of fixed length. It returns the time
// that took; the oracle's reference answers (final only) are not part of
// it, they are the benchmark's work and not the system's.
func setUp(ctx context.Context, w *workload, d *dataset, cfg config, final bool) (in *instance, took time.Duration, err error) {
	t0 := time.Now()
	in = &instance{w: w, cfg: cfg, served: make(chan error, 1), incr: make([]int32, numAccounts),
		nextEID: int64(w.events)}
	defer func() {
		if err != nil {
			in.shutDown()
		}
	}()
	opts := qpipe.Options{PoolPages: w.poolPages}
	if w.durable {
		in.dir, err = os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return in, 0, err
		}
		opts.Dir = in.dir
	}
	if in.db, err = qpipe.Open(opts); err != nil {
		return in, 0, err
	}
	if err = load(ctx, in.db, w, d); err != nil {
		return in, 0, err
	}
	if w.durable {
		// Start from a checkpoint: tables on disk, log truncated.
		if err = in.db.Checkpoint(); err != nil {
			return in, 0, err
		}
	}
	took = time.Since(t0)
	if final {
		if in.ref, err = computeReference(ctx, in.db, w); err != nil {
			return in, 0, err
		}
	}
	t1 := time.Now()
	in.db.SetDiskLatency(w.diskLatency, w.diskLatency, w.diskLatency)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return in, 0, err
	}
	in.srv = qpipe.NewServer(in.db, qpipe.ServerOptions{})
	go func() { in.served <- in.srv.Serve(ln) }()
	for i, classes := range w.conns {
		c, err := in.connect(ctx, ln.Addr().String(), i, classes)
		if err != nil {
			return in, 0, err
		}
		in.conns = append(in.conns, c)
	}
	if err = in.warmUp(ctx); err != nil {
		return in, 0, err
	}
	return in, took + time.Since(t1), nil
}

func (in *instance) connect(ctx context.Context, addr string, id int, classes []int) (*conn, error) {
	cc, err := client.Connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := &conn{in: in, c: cc, classes: classes,
		rng:   rand.New(rand.NewSource(in.cfg.seed*1000 + int64(id) + 1)),
		eopts: []qpipe.QueryOption{qpipe.WithParallelism(in.w.parallelism)}}
	if in.cfg.noOSP {
		c.opts = append(c.opts, client.WithoutOSP())
		c.eopts = append(c.eopts, qpipe.WithoutOSP())
	}
	// Parallelism is pinned per workload, not left to GOMAXPROCS.
	rows, err := cc.Query(ctx, fmt.Sprintf("SET parallelism = %d", in.w.parallelism))
	if err == nil {
		_, err = rows.Discard()
	}
	if err != nil {
		cc.Close()
		return nil, err
	}
	for _, cls := range classes {
		if cls != pointPrepared {
			continue
		}
		for _, aid := range c.rng.Perm(numAccounts)[:preparedPool] {
			text := fmt.Sprintf(sqlPointText, aid)
			p := prepared{aid: int64(aid)}
			if p.stmt, err = cc.Prepare(ctx, text); err == nil {
				p.q, err = in.db.Prepare(text)
			}
			if err != nil {
				cc.Close()
				return nil, err
			}
			c.prepared = append(c.prepared, p)
		}
	}
	return c, nil
}

func (in *instance) warmUp(ctx context.Context) error {
	return in.eachConn(func(c *conn) {
		for r := 0; r < warmRounds; r++ {
			for _, cls := range c.classes {
				o := c.draw(cls)
				c.run(ctx, &o)
			}
		}
		c.samples = c.samples[:0]
	})
}

// eachConn runs f on every connection at once and waits; it reports the
// first failure any of them met.
func (in *instance) eachConn(f func(c *conn)) error {
	var wg sync.WaitGroup
	for _, c := range in.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
	for _, c := range in.conns {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

func (in *instance) shutDown() {
	for _, c := range in.conns {
		c.c.Close()
	}
	if in.srv != nil {
		// Let the handlers see their Quit first: Shutdown beside a handler
		// that is still reading races on serverConn.readErr (server.go, found
		// by this benchmark's tests under -race; not this change's to fix).
		for i := 0; i < 2000 && in.srv.Stats().ActiveConns > 0; i++ {
			time.Sleep(time.Millisecond)
		}
		in.srv.Shutdown() // closes the DB too
		<-in.served
	} else if in.db != nil {
		in.db.Close()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// ---- operations ------------------------------------------------------------------

func (c *conn) draw(class int) op {
	o := op{class: class, text: fixedSQL[class]}
	switch class {
	case pointText:
		o.key = int64(c.rng.Intn(numAccounts))
		o.text = fmt.Sprintf(sqlPointText, o.key)
	case pointPrepared:
		o.prep = &c.prepared[c.rng.Intn(len(c.prepared))]
		o.key = o.prep.aid
	case pointIndexed:
		o.key = int64(c.rng.Intn(c.in.w.orders))
		o.text = fmt.Sprintf(sqlPointIndex, o.key)
	case txCommit:
		o.key = int64(c.rng.Intn(numAccounts))
		o.eid = c.in.nextEID
		c.in.nextEID++
	}
	return o
}

// run issues one operation over the wire and, in the traced window, once
// more staged by hand through the facade, both under one op span. The
// returned time is the wire execution's: send to last row drained.
func (c *conn) run(ctx context.Context, o *op) time.Duration {
	if c.tr != nil {
		c.tr.op++
		c.tr.class = classNames[o.class]
	}
	root := c.tr.begin("op", -1)
	var took time.Duration
	var err error
	if o.class == txCommit {
		took, err = c.commitWire(ctx, o, root)
		if err == nil && c.tr != nil {
			twin := c.draw(txCommit)
			err = c.commitStaged(ctx, &twin, root)
		}
	} else {
		took, err = c.queryWire(ctx, o, root)
		if err == nil && c.tr != nil {
			err = c.queryStaged(ctx, o, root)
		}
	}
	c.tr.end(root)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s: %w", classNames[o.class], err)
		}
	}
	return took
}

func (c *conn) queryWire(ctx context.Context, o *op, root int) (time.Duration, error) {
	c.attempted++
	ackedBefore := c.in.acked.Load()
	t0 := time.Now()
	whole := c.tr.begin("wire.query", root)
	first := c.tr.begin("wire.first_row", whole)
	var rows *client.Rows
	var err error
	if o.prep != nil {
		rows, err = o.prep.stmt.Query(ctx, c.opts...)
	} else {
		rows, err = c.c.Query(ctx, o.text, c.opts...)
	}
	if err != nil {
		return 0, err
	}
	c.rows = c.rows[:0]
	drain := -1
	for {
		b, err := rows.Next()
		if drain < 0 {
			c.tr.end(first)
			drain = c.tr.begin("wire.drain", whole)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		c.rows = append(c.rows, b...)
	}
	c.tr.end(drain)
	c.tr.end(whole)
	took := time.Since(t0)
	return took, c.check(o, ackedBefore, c.in.attempted.Load())
}

// queryStaged runs the same statement through the embedded facade, one
// timed stage per layer boundary the facade exposes.
func (c *conn) queryStaged(ctx context.Context, o *op, root int) error {
	c.attempted++
	ackedBefore := c.in.acked.Load()
	var q *qpipe.Query
	if o.prep != nil {
		q = o.prep.q // parsed and planned once, as the server keeps it
	} else {
		// The first call after the wire round trip runs on cold caches and
		// costs several warm parses; parse once untimed so that parse and
		// prepare are timed alike and their difference is the planner.
		if _, err := sql.Parse(o.text); err != nil {
			return err
		}
		s := c.tr.begin("sql.parse", root)
		_, err := sql.Parse(o.text)
		c.tr.end(s)
		if err != nil {
			return err
		}
		s = c.tr.begin("db.prepare", root) // parses again, then plans
		q, err = c.in.db.Prepare(o.text)
		c.tr.end(s)
		if err != nil {
			return err
		}
	}
	s := c.tr.begin("core.submit", root)
	res, err := q.Run(ctx, c.eopts...)
	c.tr.end(s)
	if err != nil {
		return err
	}
	c.rows = c.rows[:0]
	s = c.tr.begin("engine.first_batch", root)
	b, err := res.Next()
	c.tr.end(s)
	s = c.tr.begin("engine.drain", root)
	for err == nil {
		c.rows = append(c.rows, b...)
		res.Recycle(b)
		b, err = res.Next()
	}
	c.tr.end(s)
	if err != io.EOF {
		return err
	}
	return c.check(o, ackedBefore, c.in.attempted.Load())
}

func (c *conn) commitWire(ctx context.Context, o *op, root int) (time.Duration, error) {
	c.attempted++
	c.in.attempted.Add(1)
	t0 := time.Now()
	s := c.tr.begin("wire.query", root)
	_, err := c.c.Exec(ctx, fmt.Sprintf(sqlTxCommit, o.key, o.eid, o.key, eventNote(o.eid)))
	c.tr.end(s)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return took, c.in.ack(o)
}

func (c *conn) commitStaged(ctx context.Context, o *op, root int) error {
	c.attempted++
	c.in.attempted.Add(1)
	s := c.tr.begin("db.begin", root)
	tx := c.in.db.Begin()
	c.tr.end(s)
	defer tx.Rollback() // no-op once committed
	s = c.tr.begin("sm.tx_exec", root)
	_, err := tx.Exec(ctx, fmt.Sprintf(sqlTxBody, o.key, o.eid, o.key, eventNote(o.eid)))
	c.tr.end(s)
	if err != nil {
		return err
	}
	s = c.tr.begin("sm.tx_commit", root)
	err = tx.Commit(ctx)
	c.tr.end(s)
	if err != nil {
		return err
	}
	return c.in.ack(o)
}

// ack books an acknowledged commit and checkpoints every checkpointGap of
// them, on the writer's own connection (there are no other load threads).
func (in *instance) ack(o *op) error {
	in.acked.Add(1)
	in.incr[o.key]++
	in.eventsWant.add(eventRow(o.eid, o.key), false, nil)
	in.sinceCkpt++
	if in.sinceCkpt >= checkpointGap {
		return in.checkpoint()
	}
	return nil
}

// Encoded sizes of the two rows a transaction commits; both are constant
// (fixed-width columns and a note of fixed length).
var (
	accountRowBytes = int64(qpipe.Row{qpipe.IntValue(0), qpipe.FloatValue(0)}.EncodedSize())
	eventRowBytes   = int64(eventRow(0, 0).EncodedSize())
)

func (in *instance) checkpoint() error {
	before, t0 := deviceWriteBytes(), time.Now()
	if err := in.db.Checkpoint(); err != nil {
		return err
	}
	in.ckptMS = append(in.ckptMS, ms(time.Since(t0)))
	in.ckptMB = append(in.ckptMB, float64(deviceWriteBytes()-before)/1e6)
	in.sinceCkpt = 0
	return nil
}

// check compares a drained reply in c.rows with the reference. read_hot
// runs beside the writer, so it is checked by invariant: every account is
// there, and the total has grown by no less than the commits acknowledged
// before the send and no more than those attempted at the reply.
func (c *conn) check(o *op, ackedBefore, attemptedAfter int64) error {
	ref := c.in.ref
	if ref == nil {
		return nil
	}
	switch o.class {
	case pointText, pointPrepared, pointIndexed:
		want := ref.bal
		if o.class == pointIndexed {
			want = ref.amount
		}
		if len(c.rows) != 1 || len(c.rows[0]) != 1 || c.rows[0][0].F != want[o.key] {
			return fmt.Errorf("wrong answer for key %d: got %v, want %v", o.key, c.rows, want[o.key])
		}
	case readHot:
		if len(c.rows) != 1 || len(c.rows[0]) != 2 {
			return fmt.Errorf("wrong answer: got %v", c.rows)
		}
		grown, n := int64(c.rows[0][0].F-ref.initialSum), c.rows[0][1].I
		if n != numAccounts || grown < ackedBefore || grown > attemptedAfter {
			return fmt.Errorf("wrong answer: %d accounts, total grown by %d with %d acknowledged before and %d attempted after",
				n, grown, ackedBefore, attemptedAfter)
		}
	default:
		if got := digestOf(c.rows, ref.ordered[o.class]); got != ref.fixed[o.class] {
			return fmt.Errorf("wrong answer: digest %v, want %v", got, ref.fixed[o.class])
		}
	}
	return nil
}

// ---- windows -------------------------------------------------------------------

// window is one measured interval: counter snapshots at its start, at each
// slice boundary and at its end, and every connection's samples.
type window struct {
	length  time.Duration
	snaps   []snapshot // parts+1
	samples []sample   // of all connections, operations that ended inside
	spans   []span     // traced windows only
}

// measure drives every connection in a closed loop for the given time. The
// calling goroutine only sleeps to the boundaries and snapshots counters.
func (in *instance) measure(ctx context.Context, length time.Duration, parts int, traced bool) (window, error) {
	w := window{length: length, snaps: make([]snapshot, 0, parts+1)}
	epoch := time.Now()
	for _, c := range in.conns {
		c.samples = c.samples[:0]
		c.tr = nil
		if traced {
			c.tr = &tracer{epoch: epoch}
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- in.eachConn(func(c *conn) {
			for time.Since(epoch) < length && c.firstErr == nil {
				// Each connection draws its class from its own PRNG: a
				// fixed rotation phase-locks two clients.
				o := c.draw(c.classes[c.rng.Intn(len(c.classes))])
				took := c.run(ctx, &o)
				c.samples = append(c.samples, sample{o.class, took, time.Since(epoch)})
			}
		})
	}()
	w.snaps = append(w.snaps, in.snap())
	for i := 1; i <= parts; i++ {
		time.Sleep(time.Until(epoch.Add(length * time.Duration(i) / time.Duration(parts))))
		w.snaps = append(w.snaps, in.snap())
	}
	err := <-done
	for i, c := range in.conns {
		for _, s := range c.samples {
			if s.end <= length {
				w.samples = append(w.samples, s)
			}
		}
		if c.tr != nil {
			// Span and op ids are per connection; make them unique.
			base := len(w.spans)
			for _, s := range c.tr.spans {
				s.ID += base
				if s.Parent >= 0 {
					s.Parent += base
				}
				s.Op = s.Op*int64(len(in.conns)) + int64(i)
				w.spans = append(w.spans, s)
			}
			c.tr = nil
		}
	}
	return w, err
}

// readHotAlone times read_hot on the reader's connection while the writer
// is idle: what the statement costs without the X lock beside it.
func (in *instance) readHotAlone(ctx context.Context, length time.Duration) (latMS []float64) {
	reader := in.conns[1]
	for t0 := time.Now(); time.Since(t0) < length && reader.firstErr == nil; {
		o := reader.draw(readHot)
		latMS = append(latMS, ms(reader.run(ctx, &o)))
	}
	return latMS
}

// ---- durability ------------------------------------------------------------------

// durability is what the writer's workload adds after its windows.
type durability struct {
	recoveryS float64
	spaceAmp  float64
}

// crashAndRecover runs the writer on to exactly redoLength commits past a
// checkpoint, copies the durable directory while the server is still up
// (only fsynced bytes ever reach it, so the copy is what kill -9 would
// leave), and opens the copy: every acknowledged commit must be there, and
// nothing else. The writer is quiescent during the copy, so "no transaction
// partially" is exact equality of both tables with the bookkeeping.
func (in *instance) crashAndRecover(ctx context.Context, liveBytes int64) (durability, error) {
	var out durability
	writer := in.conns[0]
	if err := in.checkpoint(); err != nil {
		return out, err
	}
	for i := 0; i < redoLength; i++ {
		o := writer.draw(txCommit)
		writer.run(ctx, &o)
	}
	if writer.firstErr != nil {
		return out, writer.firstErr
	}
	image := in.dir + ".crash"
	defer os.RemoveAll(image)
	if err := copyDir(in.dir, image); err != nil {
		return out, err
	}
	var accountsWant digest
	for aid, bal := range in.ref.bal {
		accountsWant.add(qpipe.Row{qpipe.IntValue(int64(aid)), qpipe.FloatValue(bal + float64(in.incr[aid]))}, false, nil)
	}
	eventsWant := in.eventsWant

	if err := in.checkpoint(); err != nil {
		return out, err
	}
	out.spaceAmp = ratio(float64(dirBytes(in.dir)), float64(liveBytes+int64(eventsWant.rows)*eventRowBytes))

	t0 := time.Now()
	db, err := qpipe.Open(qpipe.Options{Dir: image, PoolPages: in.w.poolPages})
	if err != nil {
		return out, fmt.Errorf("recovery: %w", err)
	}
	out.recoveryS = time.Since(t0).Seconds()
	defer db.Close()
	for _, t := range []struct {
		text string
		want digest
	}{{`SELECT aid, bal FROM accounts`, accountsWant}, {sqlStreamAll, eventsWant}} {
		res, err := db.Query(ctx, t.text)
		if err != nil {
			return out, err
		}
		rows, err := res.All()
		if err != nil {
			return out, err
		}
		if got := digestOf(rows, false); got != t.want {
			return out, fmt.Errorf("recovery lost or tore acknowledged commits: %q gives %v, want %v", t.text, got, t.want)
		}
	}
	return out, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
