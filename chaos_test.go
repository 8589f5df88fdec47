package qpipe

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/tuple"
)

// TestChaosConcurrentWorkload is the engine's liveness and consistency
// stress test: many goroutines fire random reads (scans, sorts, joins,
// aggregates — overlapping signatures so OSP fires constantly) mixed with
// writers inserting through the update µEngine. Invariants:
//
//   - no query hangs (global deadline),
//   - no query fails,
//   - counts are monotonically consistent with the inserts (a count is
//     never below the initial size nor above initial+sent-so-far: an
//     insert is visible once committed, a moment before its writer's
//     result returns),
//   - the engine's own bookkeeping (shares, queries) stays coherent,
//   - cancelling one consumer of an in-flight partitioned scan group (the
//     cancel workers below fire constantly into the shared circular scans)
//     never stalls the group's other consumers.
func TestChaosConcurrentWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const initial = 4000
	mgr := newTestDB(t, initial)
	mgr.Disk.SetLatency(5*time.Microsecond, 8*time.Microsecond, 0)
	defer mgr.Disk.SetLatency(0, 0, 0)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	schema := tableSchema(mgr)

	var inserted, sent atomic.Int64 // rows committed; rows of the inserts sent
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	deadline := time.After(60 * time.Second)
	done := make(chan struct{})

	readWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 30; iter++ {
			insBefore := inserted.Load()
			var p plan.Node
			switch rng.Intn(5) {
			case 0: // count scan (shared circularly across workers)
				p = plan.NewAggregate(
					plan.NewTableScan("t", schema, nil, nil, false),
					[]expr.AggSpec{{Kind: expr.AggCount}})
			case 1: // filtered scan
				p = plan.NewAggregate(
					plan.NewTableScan("t", schema,
						expr.GE(expr.Col(0), expr.CInt(int64(rng.Intn(initial)))), nil, false),
					[]expr.AggSpec{{Kind: expr.AggCount}})
			case 2: // sort (identical across workers -> sort sharing)
				p = plan.NewSort(
					plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(500)), []int{0}, false),
					[]int{0}, false)
			case 3: // group-by
				p = plan.NewGroupBy(
					plan.NewTableScan("t", schema, nil, nil, false),
					[]int{1}, []expr.AggSpec{{Kind: expr.AggCount}})
			default: // self hash join on grp
				l := plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(200)), []int{1}, false)
				r := plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(300)), []int{1}, false)
				p = plan.NewAggregate(plan.NewHashJoin(l, r, 0, 0),
					[]expr.AggSpec{{Kind: expr.AggCount}})
			}
			res, err := db.run(context.Background(), p, -1, queryOpts{})
			if err != nil {
				errs <- err
				return
			}
			rows, err := res.All()
			if err != nil {
				errs <- fmt.Errorf("reader %d iter %d: %w", seed, iter, err)
				return
			}
			// Consistency check for the plain count query.
			if ag, ok := p.(*plan.Aggregate); ok {
				if ts, ok2 := ag.Child.(*plan.TableScan); ok2 && ts.Filter == nil {
					n := rows[0][0].I
					sentAfter := sent.Load()
					if n < initial+insBefore-insBefore || n < initial || n > initial+sentAfter {
						errs <- fmt.Errorf("count %d outside [%d, %d]", n, initial, initial+sentAfter)
						return
					}
				}
			}
		}
	}

	// cancelWorker fires count scans that share the partitioned circular
	// scan group with the read workers' queries, then cancels them mid
	// flight. The group must drop the cancelled consumer from every
	// partition without stalling the survivors (the final exact-count check
	// below would hang or miscount otherwise).
	cancelWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 20; iter++ {
			ctx, cancel := context.WithCancel(context.Background())
			p := plan.NewAggregate(
				plan.NewTableScan("t", schema, nil, nil, false),
				[]expr.AggSpec{{Kind: expr.AggCount}})
			res, err := db.run(ctx, p, -1, queryOpts{})
			if err != nil {
				cancel()
				errs <- err
				return
			}
			delay := time.Duration(rng.Intn(800)) * time.Microsecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			// Either outcome is legal — completed before the cancel landed,
			// or aborted with the context error — but it must not hang.
			_, _ = res.All()
		}
	}

	writeWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 10; iter++ {
			n := 1 + rng.Intn(5)
			rows := make([]tuple.Tuple, n)
			for i := range rows {
				id := int64(1_000_000) + seed*10_000 + int64(iter*10+i)
				rows[i] = tuple.Tuple{tuple.I64(id), tuple.I64(0), tuple.F64(0), tuple.Str("chaos")}
			}
			sent.Add(int64(n))
			res, err := db.run(context.Background(), plan.NewUpdate("t", rows), -1, queryOpts{})
			if err != nil {
				errs <- err
				return
			}
			if _, err := res.All(); err != nil {
				errs <- fmt.Errorf("writer %d iter %d: %w", seed, iter, err)
				return
			}
			inserted.Add(int64(n))
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go readWorker(int64(i))
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go writeWorker(int64(100 + i))
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go cancelWorker(int64(200 + i))
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-deadline:
		t.Fatalf("chaos workload hung; runtime state:\n%s", db.rt.DumpState())
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final consistency: exact count (time-bounded so a stuck pipeline
	// yields a state dump instead of a test-harness timeout).
	res, _ := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", schema, nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	type countResult struct {
		rows []tuple.Tuple
		err  error
	}
	final := make(chan countResult, 1)
	go func() {
		rows, err := res.All()
		final <- countResult{rows, err}
	}()
	var rows []tuple.Tuple
	var err error
	select {
	case r := <-final:
		rows, err = r.rows, r.err
	case <-time.After(30 * time.Second):
		t.Fatalf("final count hung; runtime state:\n%s", db.rt.DumpState())
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows[0][0].I, int64(initial)+inserted.Load(); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	st := db.Stats()
	t.Logf("chaos: %d queries, shares=%v, deadlocks=%d materialized=%d",
		st.Queries, st.SharesByOp, st.DeadlocksSeen, st.Materialized)
}

// TestChaosGovernanceStorm turns the storm adversarial: admission control
// capped below the offered load, random per-query statement timeouts, a
// seeded fault schedule hitting temp-file writes, and disk latency jitter —
// all at once. Queries may fail ONLY with governed, typed errors (overload
// shedding, deadline expiry, the injected fault, cancellation); any other
// failure or any hang is a bug. After the storm drains, the engine's
// bookkeeping must converge to zero: no in-flight queries, an empty
// admission queue, zero temp files, and an exact final count.
func TestChaosGovernanceStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const initial = 4000
	mgr := newTestDB(t, initial)
	mgr.Disk.SetLatency(5*time.Microsecond, 8*time.Microsecond, 0)
	defer mgr.Disk.SetLatency(0, 0, 0)
	mgr.Disk.SetLatencyJitter(0.4, 99)
	defer mgr.Disk.SetLatencyJitter(0, 0)
	// Seeded write faults scoped to spill files: sorts and joins trip over
	// them, heap appends (and therefore the exact-count invariant) do not.
	mgr.Disk.InjectFaultSchedule(&disk.FaultSchedule{
		Seed: 42, WriteProb: 0.05, WriteFile: "tmp:", Err: errInjected,
	})
	defer mgr.Disk.ClearFaults()

	cfg := core.DefaultConfig()
	cfg.MaxConcurrentQueries = 4
	cfg.AdmissionQueue = 6
	db := newDB(mgr, cfg)
	defer db.Close()
	schema := tableSchema(mgr)

	// tolerated reports whether an error is one the governance layer is
	// allowed to hand out under this storm.
	tolerated := func(err error) bool {
		if err == nil {
			return true
		}
		var oe *OverloadedError
		var de *DeadlineError
		return errors.As(err, &oe) || errors.As(err, &de) ||
			errors.Is(err, errInjected) || strings.Contains(err.Error(), "injected") ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	var inserted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	deadline := time.After(90 * time.Second)
	done := make(chan struct{})

	mkRead := func(rng *rand.Rand) plan.Node {
		switch rng.Intn(4) {
		case 0: // count scan
			return plan.NewAggregate(
				plan.NewTableScan("t", schema, nil, nil, false),
				[]expr.AggSpec{{Kind: expr.AggCount}})
		case 1: // sort — always writes tmp:sorted:, so faults fire here
			return plan.NewSort(
				plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(500)), []int{0}, false),
				[]int{0}, false)
		case 2: // group-by
			return plan.NewGroupBy(
				plan.NewTableScan("t", schema, nil, nil, false),
				[]int{1}, []expr.AggSpec{{Kind: expr.AggCount}})
		default: // self hash join
			l := plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(200)), []int{1}, false)
			r := plan.NewTableScan("t", schema, expr.LT(expr.Col(0), expr.CInt(300)), []int{1}, false)
			return plan.NewAggregate(plan.NewHashJoin(l, r, 0, 0),
				[]expr.AggSpec{{Kind: expr.AggCount}})
		}
	}

	// readWorker: plain reads; overload shedding and injected faults are
	// legal outcomes, anything else is not.
	readWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 25; iter++ {
			res, err := db.run(context.Background(), mkRead(rng), -1, queryOpts{})
			if err != nil {
				if !tolerated(err) {
					errs <- fmt.Errorf("reader %d iter %d submit: %w", seed, iter, err)
					return
				}
				continue
			}
			if _, err := res.All(); !tolerated(err) {
				errs <- fmt.Errorf("reader %d iter %d: %w", seed, iter, err)
				return
			}
		}
	}

	// timeoutWorker: the same reads armed with random tight statement
	// timeouts — some expire in the admission queue, some mid-execution,
	// some not at all.
	timeoutWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 25; iter++ {
			d := time.Duration(1+rng.Intn(20)) * time.Millisecond
			q, err := db.rt.SubmitOpts(context.Background(), mkRead(rng),
				core.QueryOptions{Timeout: d})
			if err != nil {
				if !tolerated(err) {
					errs <- fmt.Errorf("timeout worker %d iter %d submit: %w", seed, iter, err)
					return
				}
				continue
			}
			// A killed query tears its buffers down under the reader, so the
			// drain may surface teardown shrapnel; the query's terminal error
			// (Wait) is the authoritative, typed one.
			_, derr := q.Result.Drain()
			werr := q.Wait()
			if !tolerated(werr) {
				errs <- fmt.Errorf("timeout worker %d iter %d wait: %w", seed, iter, werr)
				return
			}
			if derr != nil && werr == nil && !tolerated(derr) {
				// The deadline can land between the query's completion and the
				// drain's last Get: Wait is clean, the drain sees teardown
				// shrapnel. CancelErr exposes the governed cause.
				if cerr := q.CancelErr(); cerr == nil || !tolerated(cerr) {
					errs <- fmt.Errorf("timeout worker %d iter %d drain: %w", seed, iter, derr)
					return
				}
			}
		}
	}

	// cancelWorker: client-side cancellation racing admission and execution.
	cancelWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 15; iter++ {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := db.run(ctx, mkRead(rng), -1, queryOpts{})
			if err != nil {
				cancel()
				if !tolerated(err) {
					errs <- fmt.Errorf("cancel worker %d iter %d submit: %w", seed, iter, err)
					return
				}
				continue
			}
			delay := time.Duration(rng.Intn(1500)) * time.Microsecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			if _, err := res.All(); !tolerated(err) {
				errs <- fmt.Errorf("cancel worker %d iter %d: %w", seed, iter, err)
				return
			}
		}
	}

	// writeWorker: inserts count toward the final total only when they fully
	// succeed. Writers carry no timeout and heap appends are outside the
	// fault schedule's write scope, so a writer admitted past the queue must
	// not fail at all — partial application would corrupt the invariant.
	writeWorker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 10; iter++ {
			n := 1 + rng.Intn(5)
			rows := make([]tuple.Tuple, n)
			for i := range rows {
				id := int64(2_000_000) + seed*10_000 + int64(iter*10+i)
				rows[i] = tuple.Tuple{tuple.I64(id), tuple.I64(0), tuple.F64(0), tuple.Str("storm")}
			}
			res, err := db.run(context.Background(), plan.NewUpdate("t", rows), -1, queryOpts{})
			if err != nil {
				var oe *OverloadedError
				if !errors.As(err, &oe) {
					errs <- fmt.Errorf("writer %d iter %d submit: %w", seed, iter, err)
					return
				}
				continue // shed before anything ran: nothing applied
			}
			if _, err := res.All(); err != nil {
				errs <- fmt.Errorf("writer %d iter %d: %w", seed, iter, err)
				return
			}
			inserted.Add(int64(n))
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	for i := 0; i < 6; i++ {
		wg.Add(1)
		go readWorker(int64(i))
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go timeoutWorker(int64(300 + i))
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go cancelWorker(int64(400 + i))
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go writeWorker(int64(500 + i))
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-deadline:
		t.Fatalf("governance storm hung; runtime state:\n%s", db.rt.DumpState())
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Calm the disk and verify the bookkeeping converged.
	mgr.Disk.ClearFaults()
	mgr.Disk.SetLatencyJitter(0, 0)
	mgr.Disk.SetLatency(0, 0, 0)

	stDeadline := time.Now().Add(10 * time.Second)
	for {
		st := db.Stats()
		if st.InFlight == 0 && st.AdmissionQueued == 0 {
			break
		}
		if time.Now().After(stDeadline) {
			t.Fatalf("governance gauges did not converge: in-flight=%d queued=%d\n%s",
				st.InFlight, st.AdmissionQueued, db.rt.DumpState())
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:") }, "spill")

	// Exact final count: every successful insert is present, no torn writes.
	res, err := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", schema, nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows[0][0].I, int64(initial)+inserted.Load(); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	st := db.Stats()
	if st.Shed == 0 && st.DeadlineTimeouts == 0 {
		t.Fatal("storm never exercised the governance layer (no sheds, no timeouts)")
	}
	t.Logf("governance storm: %d queries, shed=%d timeouts=%d faults=%d shares=%v",
		st.Queries, st.Shed, st.DeadlineTimeouts, mgr.Disk.Stats().FaultsInjected, st.SharesByOp)
}
