package qpipe

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
)

// Resource-governance tests: admission control (typed shedding, FIFO queue,
// recovery), per-query deadlines (typed errors through every submission and
// execution path), and graceful drain — all through the public facade.

// waitStat polls a Stats gauge until it reaches want.
func waitStat(t *testing.T, db *DB, get func(Stats) int64, want int64, what string) {
	t.Helper()
	waitCount(t, what, want, func() int64 { return get(db.Stats()) })
}

// waitCount polls a counter until it reads want, and gives up after ten
// seconds: it waits for a state, it does not measure a time.
func waitCount(t *testing.T, what string, want int64, get func() int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d (timed out)", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// governedDB opens a DB whose result buffers are small enough that an
// undrained query reliably stays in flight (holding its admission slot).
func governedDB(t *testing.T, rows int, opts Options) *DB {
	t.Helper()
	opts.PoolPages = 64
	opts.BufferCapacity = 2
	opts.BatchSize = 16
	opts.ScanParallelism = 1
	return openTestDB(t, rows, opts)
}

func TestAdmissionControlShedsTyped(t *testing.T) {
	db := governedDB(t, 3000, Options{MaxConcurrentQueries: 1, AdmissionQueue: -1, DrainTimeout: -1})
	ctx := context.Background()
	res1, err := db.Scan("t").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 1, "InFlight")
	// The only slot is held and there is no queue: the next query is shed.
	_, err = db.Scan("t").Run(ctx)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded submit: got %v, want *OverloadedError", err)
	}
	if oe.MaxConcurrent != 1 || oe.QueueDepth != 0 {
		t.Fatalf("OverloadedError fields: %+v", oe)
	}
	if got := db.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	// Draining the holder frees the slot; a retry then succeeds (the typed
	// error is the back-off-and-retry signal).
	if _, err := res1.All(); err != nil {
		t.Fatal(err)
	}
	waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 0, "InFlight")
	res2, err := db.Scan("t").Aggregate(Count()).Run(ctx)
	if err != nil {
		t.Fatalf("post-shed query: %v", err)
	}
	rows, err := res2.All()
	if err != nil || rows[0][0].I != 3000 {
		t.Fatalf("post-shed result: %v %v", rows, err)
	}
}

func TestAdmissionQueueAdmitsInOrder(t *testing.T) {
	db := governedDB(t, 3000, Options{MaxConcurrentQueries: 1, AdmissionQueue: 2, DrainTimeout: -1})
	ctx := context.Background()
	res1, err := db.Scan("t").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 1, "InFlight")
	// Two queries park in the admission queue, in order.
	order := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			res, err := db.Scan("t").Aggregate(Count()).Run(ctx)
			if err != nil {
				return
			}
			order <- i
			res.Discard()
		}()
		waitStat(t, db, func(s Stats) int64 { return s.AdmissionQueued }, int64(i), "AdmissionQueued")
	}
	// Queue full: the next query is shed.
	if _, err := db.Scan("t").Run(ctx); !errors.As(err, new(*OverloadedError)) {
		t.Fatalf("queue-full submit: got %v, want *OverloadedError", err)
	}
	// Draining the holder admits the queued queries FIFO.
	if _, err := res1.All(); err != nil {
		t.Fatal(err)
	}
	if got := <-order; got != 1 {
		t.Fatalf("first admitted waiter = %d, want 1 (FIFO)", got)
	}
	if got := <-order; got != 2 {
		t.Fatalf("second admitted waiter = %d, want 2 (FIFO)", got)
	}
	waitStat(t, db, func(s Stats) int64 { return s.AdmissionQueued }, 0, "AdmissionQueued")
}

func TestWithTimeoutFailsTyped(t *testing.T) {
	db := openTestDB(t, 8000, Options{PoolPages: 64, ScanParallelism: 1})
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	db.SetDiskLatency(2*time.Millisecond, 2*time.Millisecond, 0)
	defer db.SetDiskLatency(0, 0, 0)
	res, err := db.Scan("t").Sort("k").Run(context.Background(), WithTimeout(25*time.Millisecond))
	if err == nil {
		_, err = res.All()
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("timed-out query: got %v, want *DeadlineError", err)
	}
	if de.Timeout != 25*time.Millisecond {
		t.Fatalf("DeadlineError.Timeout = %v", de.Timeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("DeadlineError must unwrap to context.DeadlineExceeded")
	}
	waitStat(t, db, func(s Stats) int64 { return s.DeadlineTimeouts }, 1, "DeadlineTimeouts")
	// No temp spill files survive the timed-out sort, and the engine stays
	// healthy.
	mgr := db.mgr
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:") }, "timed-out query")
	db.SetDiskLatency(0, 0, 0)
	res2, err := db.Scan("t").Aggregate(Count()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res2.All()
	if err != nil || rows[0][0].I != 8000 {
		t.Fatalf("engine unusable after timeout: %v %v", rows, err)
	}
}

func TestDeadlineExpiresInAdmissionQueue(t *testing.T) {
	db := governedDB(t, 3000, Options{MaxConcurrentQueries: 1, AdmissionQueue: 4, DrainTimeout: -1})
	ctx := context.Background()
	res1, err := db.Scan("t").Run(ctx) // holds the only slot
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 1, "InFlight")
	// A queued query whose deadline fires while waiting must fail with the
	// typed *DeadlineError — not hang, not return a context error.
	_, err = db.Scan("t").Run(ctx, WithTimeout(30*time.Millisecond))
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("queued timeout: got %v, want *DeadlineError", err)
	}
	if got := db.Stats().DeadlineTimeouts; got < 1 {
		t.Fatalf("DeadlineTimeouts = %d", got)
	}
	if _, err := res1.All(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineOptionValidation(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 64})
	var oe *OptionError
	if _, err := db.Scan("t").Run(context.Background(), WithTimeout(0)); !errors.As(err, &oe) {
		t.Fatalf("WithTimeout(0): got %v, want *OptionError", err)
	}
	if _, err := db.Scan("t").Run(context.Background(), WithDeadline(time.Time{})); !errors.As(err, &oe) {
		t.Fatalf("WithDeadline(zero): got %v, want *OptionError", err)
	}
	// An already-expired absolute deadline fails typed (at submit or on the
	// first drain — both are legal), never silently truncates.
	res, err := db.Scan("t").Run(context.Background(), WithDeadline(time.Now().Add(-time.Second)))
	if err == nil {
		_, err = res.All()
	}
	if !errors.As(err, new(*DeadlineError)) {
		t.Fatalf("expired deadline: got %v, want *DeadlineError", err)
	}
}

func TestStatementTimeoutSession(t *testing.T) {
	db := openTestDB(t, 8000, Options{PoolPages: 64, ScanParallelism: 1})
	ctx := context.Background()
	// Each row's statement outlives the session's 25ms timeout: the query on
	// a cold, slow disk, an autocommit mutation on the table lock an open
	// transaction holds. A timed-out mutation has no effect once it has
	// ended: its kept query (if any) still reads 1.
	slowDisk := func() (release func()) {
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		db.SetDiskLatency(2*time.Millisecond, 2*time.Millisecond, 0)
		return func() { db.SetDiskLatency(0, 0, 0) }
	}
	heldLock := func() (release func()) {
		tx := db.Begin()
		if _, err := tx.Exec(ctx, "UPDATE t SET grp = 2 WHERE k = 0"); err != nil {
			t.Fatal(err)
		}
		return tx.Rollback
	}
	exec := func(text string) func(*Session) error {
		return func(sess *Session) error {
			_, err := db.ExecSession(ctx, sess, text)
			return err
		}
	}
	var timeouts int64
	for _, row := range []struct {
		name  string
		stall func() func()
		run   func(*Session) error
		kept  string
	}{
		{"query", slowDisk, func(sess *Session) error {
			res, err := db.Query(ctx, "SELECT * FROM t ORDER BY k", sess.Options()...)
			if err == nil {
				_, err = res.All()
			}
			return err
		}, ""},
		{"update", heldLock, exec("UPDATE t SET grp = 3 WHERE k = 1"), "SELECT grp FROM t WHERE k = 1"},
		{"delete", heldLock, exec("DELETE FROM t WHERE k = 2"), "SELECT count(*) AS n FROM t WHERE k = 2"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var sess Session
			if _, err := db.ExecSession(ctx, &sess, "SET statement_timeout = 25"); err != nil {
				t.Fatal(err)
			}
			// The stall ends after 15 s whatever happens, so the row fails
			// instead of hanging: a statement the timeout does not bound is
			// still waiting when waitStat gives up at 10 s.
			release := sync.OnceFunc(row.stall())
			defer release()
			time.AfterFunc(15*time.Second, release)
			if err := row.run(&sess); !errors.As(err, new(*DeadlineError)) {
				t.Fatalf("got %v, want *DeadlineError", err)
			}
			// The statement itself has ended, not only its reply, while the
			// stall still holds.
			timeouts++
			waitStat(t, db, func(s Stats) int64 { return s.DeadlineTimeouts }, timeouts, "DeadlineTimeouts")
			release()
			if row.kept == "" {
				return
			}
			res, err := db.Query(ctx, row.kept)
			if err != nil {
				t.Fatal(err)
			}
			if rows, err := res.All(); err != nil || len(rows) != 1 || rows[0][0].I != 1 {
				t.Fatalf("%s after the timed-out statement: %v, %v; want 1", row.kept, rows, err)
			}
		})
	}
}

// A statement timeout that passes after an autocommit mutation's commit has
// begun — here while the WAL stalls between writing the commit's records and
// syncing them — comes too late: the UPDATE commits, and its reply says so.
// A *DeadlineError there would invite a retry that applies grp = grp + 1
// twice.
func TestStatementTimeoutAfterCommitBegan(t *testing.T) {
	db := openTestDB(t, 100, Options{PoolPages: 64, ScanParallelism: 1})
	ctx := context.Background()
	var stall atomic.Bool
	db.mgr.WAL().Hook = func(site string) {
		if site == "append:post-record-pre-fsync" && stall.Swap(false) {
			time.Sleep(250 * time.Millisecond) // ten times the timeout
		}
	}
	var sess Session
	if _, err := db.ExecSession(ctx, &sess, "SET statement_timeout = 25"); err != nil {
		t.Fatal(err)
	}
	stall.Store(true)
	n, err := db.ExecSession(ctx, &sess, "UPDATE t SET grp = grp + 1 WHERE k = 1")
	if stall.Load() {
		t.Fatal("the UPDATE's commit never reached the WAL")
	}
	res, qerr := db.Query(ctx, "SELECT grp FROM t WHERE k = 1")
	if qerr != nil {
		t.Fatal(qerr)
	}
	rows, qerr := res.All()
	if qerr != nil || len(rows) != 1 {
		t.Fatalf("SELECT grp: %v, %v", rows, qerr)
	}
	if grp := rows[0][0].I; err != nil || n != 1 || grp != 2 {
		t.Fatalf("UPDATE replied (%d, %v) and left grp = %d; want (1, <nil>) and grp = 2", n, err, grp)
	}
	if got := db.Stats().DeadlineTimeouts; got != 0 {
		t.Fatalf("DeadlineTimeouts = %d, want 0", got)
	}
}

func TestSatelliteRescuedFromTimedOutHost(t *testing.T) {
	// A query absorbed as a satellite onto a host that times out before
	// emitting must be rescued — run as itself and completed with the full
	// result — exactly like the cancelled-host path. A held scan of another
	// signature pins the table, so the host aggregate cannot emit before its
	// deadline fires; the satellite attaches well before that.
	const n = 8000
	mgr := newTestDB(t, n)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	_, release := holdTable(t, db, "t")
	mk := func() plan.Node {
		return plan.NewAggregate(
			plan.NewTableScan("t", tableSchema(mgr), nil, nil, false),
			[]expr.AggSpec{{Kind: expr.AggCount}})
	}
	qH, err := db.rt.SubmitOpts(context.Background(), mk(),
		core.QueryOptions{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	qS, err := db.rt.Submit(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if got := qS.Stats.SatelliteAttaches(); got != 1 || qH.Ctx().Err() != nil {
		t.Fatalf("%d attaches before the host's deadline (passed: %v), want 1", got, qH.Ctx().Err())
	}
	if err := qH.Wait(); !errors.As(err, new(*DeadlineError)) {
		t.Fatalf("host error = %v, want *DeadlineError", err)
	}
	// The rescued aggregate was enqueued again, beside its dying host.
	if got := qS.Stats.Shares[core.ShareHostCancelled].Load(); got != 1 || qS.Stats.Shares[core.ShareAttached].Load() != 0 {
		t.Fatalf("the rescued aggregate's decisions: %v, want one host-cancelled", &qS.Stats.Shares)
	}
	release()
	b, err := qS.Result.Get()
	if err != nil {
		t.Fatalf("satellite after host timeout: %v", err)
	}
	if b[0][0].I != n {
		t.Fatalf("satellite count = %d, want %d", b[0][0].I, n)
	}
	if err := qS.Wait(); err != nil {
		t.Fatal(err)
	}
	pkts := make(map[int64]bool)
	for _, p := range qS.Packets() {
		pkts[p.ID] = true
	}
	for _, buf := range qS.Buffers() {
		if s := buf.Snapshot(); buf != qS.Result && !pkts[s.Consumer] {
			t.Errorf("buffer %s is read by %d, no packet of its query", s.Label, s.Consumer)
		}
	}
}

func TestGracefulDrainServesInFlight(t *testing.T) {
	db := governedDB(t, 3000, Options{DrainTimeout: 30 * time.Second})
	res, err := db.Scan("t").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		rows, err := res.All()
		if err == nil && len(rows) != 3000 {
			err = errors.New("short result")
		}
		drained <- err
	}()
	db.Close() // waits for the in-flight query
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("in-flight query during drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained query never completed")
	}
	// New queries are rejected once the drain began.
	if _, err := db.Scan("t").Run(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit: got %v, want ErrClosed", err)
	}
}

func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	db := governedDB(t, 3000, Options{DrainTimeout: 100 * time.Millisecond})
	res, err := db.Scan("t").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	db.Close() // the undrained query cannot finish — the timeout must fire
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v with a 100ms DrainTimeout", elapsed)
	}
	if _, err := res.All(); err == nil {
		t.Fatal("straggler survived Close without an error")
	}
}
