// Runtime: engine assembly, the packet dispatcher, and query admission.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/plan"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/sm"
)

// Config tunes the QPipe runtime.
type Config struct {
	// OSP enables on-demand simultaneous pipelining. Disabled, the runtime
	// is the paper's "Baseline": same engine, no sharing beyond the pool.
	OSP bool
	// ScanParallelism is the default fan-out of every parallel operator:
	// unordered table and clustered-index scans split their page range into
	// that many contiguous partitions served concurrently by scan
	// sub-workers, each with its own circular cursor, and hash joins and
	// aggregations deal their input to that many sub-workers. 1 (or negative)
	// is serial; 0 defaults to GOMAXPROCS. A query overrides it with
	// QueryOptions.Parallelism, never a plan node.
	ScanParallelism int
	// BufferCapacity bounds intermediate buffers, in batches (default 8).
	BufferCapacity int
	// BatchSize is the tuple count operators aim for per produced batch and
	// the array size the runtime's batch recycling pool serves (default
	// DefaultBatchSize). One knob: emitters, cursors and the pool agree.
	BatchSize int
	// ReplayWindow is the number of produced tuples a packet retains for
	// late satellite attachment — the buffering enhancement of §3.2. 0 means
	// the default, 1024; 1 is the strictest window a Config can ask for (a
	// satellite attaches until the host's second tuple: step/spike
	// semantics); negative retains everything a packet produces.
	ReplayWindow int
	// DeadlockInterval is the Waits-For scan period (default 25ms;
	// negative disables the detector).
	DeadlockInterval time.Duration
	// LateActivation gates merge-join children until the join decides how
	// to evaluate them (§4.3.1/§4.3.2). Meaningful only with OSP.
	LateActivation bool
	// MaxConcurrentQueries caps how many queries execute at once
	// (admission control). Excess submissions park in a bounded FIFO wait
	// queue; once that is full too, Submit sheds the query with a typed
	// *OverloadedError. 0 (the default) disables governance.
	MaxConcurrentQueries int
	// AdmissionQueue bounds the admission wait queue, in queries (only
	// meaningful with MaxConcurrentQueries > 0; 0 defaults to
	// 2×MaxConcurrentQueries, negative means no queue — shed immediately
	// at the concurrency limit).
	AdmissionQueue int
	// DrainTimeout bounds how long Close waits for in-flight queries to
	// finish before cancelling the stragglers (graceful drain; 0 defaults
	// to 5s, negative cancels immediately — the pre-governance behavior).
	DrainTimeout time.Duration
}

// DefaultBatchSize is the default Config.BatchSize: the single source of
// the engine's tuples-per-batch constant (operators and the batch pool must
// never hard-code their own).
const DefaultBatchSize = 64

func (c Config) withDefaults() Config {
	if c.ScanParallelism == 0 {
		c.ScanParallelism = runtime.GOMAXPROCS(0)
	}
	if c.BufferCapacity <= 0 {
		c.BufferCapacity = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.ReplayWindow == 0 {
		c.ReplayWindow = 1024
	}
	if c.DeadlockInterval == 0 {
		c.DeadlockInterval = 25 * time.Millisecond
	}
	if c.AdmissionQueue == 0 {
		c.AdmissionQueue = 2 * c.MaxConcurrentQueries
	}
	if c.AdmissionQueue < 0 {
		c.AdmissionQueue = 0
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DrainTimeout < 0 {
		c.DrainTimeout = 0
	}
	return c
}

// DefaultConfig returns the configuration used by the experiments'
// "QPipe w/OSP" system.
func DefaultConfig() Config {
	return Config{OSP: true, LateActivation: true}.withDefaults()
}

// BaselineConfig returns the "Baseline" system: QPipe with OSP disabled.
func BaselineConfig() Config {
	return Config{OSP: false}.withDefaults()
}

// RuntimeStats aggregates engine counters, and the sharing ledger with its views.
type RuntimeStats struct {
	Queries       int64
	Shares        [NumShareDecisions]int64 // the sharing ledger: every µEngine's packets, by how their decision ended
	SharesByOp    map[plan.OpType]int64    // the ledger's shares by µEngine, no entry for one without any
	KeyFilters    int64                    // hash joins that handed their build keys to the probe scan
	Folds         int64                    // aggregates that handed their accumulators to the scan below
	Bounds        int64                    // Top-Ns that handed their n-th key to the scan below
	HandOvers     [NumHandOvers]int64      // QueryStats.HandOvers of every finished query, summed: [HandOverInstalled] = its KeyFilters + Folds + Bounds
	PagesVisited  int64                    // QueryStats.PagesVisited of every finished query, summed
	PagesLocated  int64                    // and QueryStats.PagesLocated: visits that had to derive the page's layout
	EngineStats   map[plan.OpType]EngineStats
	DeadlocksSeen int64
	Materialized  int64 // buffers switched to unbounded by the detector

	// Resource-governance counters.
	InFlight         int64 // gauge: queries currently admitted and running
	AdmissionQueued  int64 // gauge: queries parked in the admission queue
	Shed             int64 // queries rejected with *OverloadedError
	DeadlineTimeouts int64 // queries terminated by their deadline
	Panics           int64 // operator panics quarantined across µEngines
}

// Runtime is the assembled QPipe engine: one µEngine per operator type, a
// packet dispatcher, and the deadlock detector.
type Runtime struct {
	SM  *sm.Manager
	Cfg Config

	engines map[plan.OpType]*MicroEngine

	// admit is the query admission controller (nil-safe no-op when
	// MaxConcurrentQueries is 0).
	admit *admission

	mu      sync.Mutex
	queries map[int64]*Query
	// draining rejects NEW submissions while Close waits for in-flight
	// queries; closed additionally keeps rescues from starting packets.
	draining bool
	closed   bool
	// idle is signalled whenever the queries map empties (Close's drain
	// wait).
	idle *sync.Cond

	nQueries     atomic.Int64
	deadlocks    atomic.Int64
	materialized atomic.Int64
	timeouts     atomic.Int64
	keyFilters   atomic.Int64
	folds        atomic.Int64
	bounds       atomic.Int64
	handOvers    [NumHandOvers]atomic.Int64
	pagesVisited atomic.Int64
	pagesLocated atomic.Int64

	detector *detector
}

// NewRuntime assembles a runtime over the storage manager with the given
// operator implementations (one per OpType; the ops package provides the
// standard set).
func NewRuntime(s *sm.Manager, cfg Config, operators []Operator) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		SM:      s,
		Cfg:     cfg,
		engines: make(map[plan.OpType]*MicroEngine),
		queries: make(map[int64]*Query),
		admit:   newAdmission(cfg.MaxConcurrentQueries, cfg.AdmissionQueue),
	}
	rt.idle = sync.NewCond(&rt.mu)
	for _, op := range operators {
		if _, dup := rt.engines[op.Op()]; dup {
			panic(fmt.Sprintf("core: duplicate operator for %s", op.Op()))
		}
		rt.engines[op.Op()] = newMicroEngine(rt, op)
	}
	if cfg.DeadlockInterval > 0 {
		rt.detector = newDetector(rt, cfg.DeadlockInterval)
		rt.detector.start()
	}
	return rt
}

// Engine returns the µEngine for an operator type (nil if absent).
func (rt *Runtime) Engine(op plan.OpType) *MicroEngine { return rt.engines[op] }

// Submit admits a query plan: the packet dispatcher creates one packet per
// plan node (paper §4.2) and enqueues them bottom-up. The returned Query's
// Result buffer carries root output; drain it and Wait for completion.
func (rt *Runtime) Submit(ctx context.Context, node plan.Node) (*Query, error) {
	return rt.SubmitOpts(ctx, node, QueryOptions{})
}

// SubmitOpts is Submit with per-query execution options; the options travel
// with the query so every packet it dispatches consults them instead of the
// global config.
func (rt *Runtime) SubmitOpts(ctx context.Context, node plan.Node, opts QueryOptions) (*Query, error) {
	rt.mu.Lock()
	if rt.draining || rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	rt.mu.Unlock()
	if err := rt.validate(node); err != nil {
		return nil, err
	}
	q := newQuery(ctx, opts)
	// A context that is already dead — an expired deadline, a cancelled
	// caller — fails here, deterministically: otherwise a small query can
	// race to a clean completion before the context watcher ever runs.
	if err := q.ctx.Err(); err != nil {
		q.stop()
		return nil, rt.typedSubmitErr(q, err)
	}
	// Admission control: acquire a query slot (FIFO-queued at the limit)
	// before any lock, buffer or packet exists, so a shed query costs the
	// engine nothing. The wait is bounded by the query's own context — a
	// deadline expiring in the queue surfaces as the typed *DeadlineError,
	// never a hang.
	if err := rt.admit.Acquire(q.ctx); err != nil {
		q.stop()
		return nil, rt.typedSubmitErr(q, err)
	}
	// Query-level read locking (§4.3.4): acquire a shared lock on every
	// table the plan reads *before* any packet is dispatched, released when
	// the query finishes. Taking the whole read set up front — instead of
	// inside each scan packet — means no lock is ever requested while the
	// query already holds buffer dependencies. Per-scan locking deadlocked
	// a two-scan join against a queued writer: scan B holds S with a full
	// output buffer, a writer queues for X, scan A's S request then blocks
	// behind the writer, and the join waits on A while B waits on the join
	// — a cycle through the lock manager that the buffer-level deadlock
	// detector cannot see.
	tables := readTables(node)
	for i, tb := range tables {
		if err := rt.SM.Locks.Lock(q.ctx, tb, lock.Shared); err != nil {
			for _, held := range tables[:i] {
				rt.SM.Locks.Unlock(held, lock.Shared)
			}
			q.stop()
			rt.admit.Release()
			return nil, rt.typedSubmitErr(q, err)
		}
	}
	result := tbuf.New(rt.Cfg.BufferCapacity)
	result.Consumer.Store(opts.Reader)
	result.Label = tbuf.Label{Query: q.ID, To: "result"}
	q.addBuffer(result)
	q.Result = result
	q.Root = rt.dispatch(q, node, result, false)

	rt.mu.Lock()
	rt.queries[q.ID] = q
	rt.mu.Unlock()
	rt.nQueries.Add(1)

	// Context watcher: cancellation through the caller's context must tear
	// the query down actively (abandon its buffers, flag its packets) —
	// otherwise a packet that never polls Cancelled() blocks its producers
	// on full buffers forever. A finished query is never torn down: its
	// result buffer may still hold batches the client is draining.
	stopWatch := context.AfterFunc(q.ctx, func() {
		select {
		case <-q.finished:
		default:
			q.Cancel()
		}
	})
	go func() {
		err := q.Wait()
		for _, tb := range tables {
			rt.SM.Locks.Unlock(tb, lock.Shared)
		}
		rt.pagesVisited.Add(q.Stats.PagesVisited.Load())
		rt.pagesLocated.Add(q.Stats.PagesLocated.Load())
		for why := range q.Stats.HandOvers {
			rt.handOvers[why].Add(q.Stats.HandOvers[why].Load())
		}
		close(q.finished)
		// Release the query's cancel context so long-lived parent contexts
		// don't accumulate a child registration per completed query.
		// Ordered after the finished close and the watcher's stop so the
		// watcher, if already started, can tell this apart from a real
		// caller cancellation.
		stopWatch()
		q.stop()
		rt.mu.Lock()
		delete(rt.queries, q.ID)
		if len(rt.queries) == 0 {
			rt.idle.Broadcast()
		}
		rt.mu.Unlock()
		rt.admit.Release()
		var de *DeadlineError
		if errors.As(err, &de) {
			rt.timeouts.Add(1)
		}
	}()
	return q, nil
}

// typedSubmitErr maps a submit-time context failure onto the query's typed
// terminal error: a deadline that expired while the query was parked in the
// admission queue (or waiting for its table locks) is a statement timeout,
// counted and reported exactly like one that fired mid-execution.
func (rt *Runtime) typedSubmitErr(q *Query, err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		rt.timeouts.Add(1)
		return &DeadlineError{Timeout: q.timeout, Deadline: q.deadline}
	}
	return err
}

// readTables returns the distinct tables a plan reads, sorted (the query's
// shared-lock set, acquired in deterministic order at submit).
func readTables(node plan.Node) []string {
	seen := make(map[string]bool)
	plan.Walk(node, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.TableScan:
			seen[x.Table] = true
		case *plan.IndexScan:
			seen[x.Table] = true
		}
	})
	return slices.Sorted(maps.Keys(seen))
}

func (rt *Runtime) validate(node plan.Node) error {
	if err := plan.Validate(node); err != nil {
		return err
	}
	var err error
	updates := 0
	plan.Walk(node, func(n plan.Node) {
		if rt.engines[n.Op()] == nil && err == nil {
			err = fmt.Errorf("core: no µEngine for operator %s", n.Op())
		}
		if n.Op() == plan.OpUpdate {
			updates++
		}
	})
	if err != nil {
		return err
	}
	// Updates are single-node plans (§4.3.4: updates are never shared and
	// never combined with reads). Enforced here because mixing them would
	// also self-deadlock the query-level locking: the query's submit-time S
	// lock on a table can never be upgraded by its own update µEngine's X
	// request (the lock manager has no owner tracking).
	if updates > 0 && plan.CountNodes(node) > 1 {
		return fmt.Errorf("core: update plans must be single-node, got %d nodes", plan.CountNodes(node))
	}
	return nil
}

// dispatch creates and enqueues packets for the subtree rooted at node,
// writing output into out, and only then starts the queued ones: a packet
// whose parent was absorbed as a satellite is discarded before it runs, so it
// decides nothing past its enqueue. It returns once those that decide in
// their Run have: a scan has joined or hosted its group by the time Submit
// returns, as it had when it decided at enqueue (§4.3.1). When gated, the
// root packet is created but not enqueued (late activation); its owner must
// Activate or cancel it.
func (rt *Runtime) dispatch(q *Query, node plan.Node, out *tbuf.Buffer, gated bool) *Packet {
	var queued []*Packet
	root := rt.enqueueTree(q, node, out, gated, &queued)
	rt.start(queued...)
	for _, pkt := range queued {
		pkt.decided.Wait()
	}
	return root
}

// enqueueTree is dispatch's walk, bottom up, adding the packets it queued to
// queued. Each packet's signature is rendered once, around its children's.
func (rt *Runtime) enqueueTree(q *Query, node plan.Node, out *tbuf.Buffer, gated bool, queued *[]*Packet) *Packet {
	pkt := newPacket(q, node)
	pkt.OutBuf = out
	pkt.Out = tbuf.NewSharedOut(out, rt.Cfg.ReplayWindow)
	pkt.Out.SetProducer(pkt.ID)
	q.addPacket(pkt)
	pkt.Sig = plan.SignatureOver(node, rt.enqueueChildren(pkt, queued))
	if gated {
		pkt.setState(PacketGated)
	} else if rt.engines[node.Op()].Enqueue(pkt) {
		*queued = append(*queued, pkt)
	}
	return pkt
}

// enqueueChildren is the walk below pkt: a fresh subtree for each child of its
// node, writing into a fresh input of pkt. It returns the children's
// signatures.
func (rt *Runtime) enqueueChildren(pkt *Packet, queued *[]*Packet) (sigs []string) {
	gated := rt.shouldGateChildren(pkt.Query, pkt.Node)
	for _, cn := range pkt.Node.Children() {
		// The child's port is buf's producer, and a scan group re-binds it
		// to the group's host: it must NOT be set here.
		buf := rt.newInput(pkt, cn)
		child := rt.enqueueTree(pkt.Query, cn, buf, gated, queued)
		pkt.Inputs = append(pkt.Inputs, buf)
		pkt.Children = append(pkt.Children, child)
		sigs = append(sigs, child.Sig)
	}
	return sigs
}

// newInput adds to reader's query a buffer that reader reads what from's
// packet writes: reader is its Waits-For consumer.
func (rt *Runtime) newInput(reader *Packet, from plan.Node) *tbuf.Buffer {
	buf := tbuf.New(rt.Cfg.BufferCapacity)
	buf.Consumer.Store(reader.ID)
	buf.Label = tbuf.Label{Query: reader.Query.ID, From: string(from.Op()), To: string(reader.Node.Op())}
	reader.Query.addBuffer(buf)
	return buf
}

// shouldGateChildren applies late activation to merge-join inputs so the
// join µEngine can rewire them (two-packet split, §4.3.2) before they read
// a page.
func (rt *Runtime) shouldGateChildren(q *Query, node plan.Node) bool {
	if !rt.OSPAllowed(q) || !rt.Cfg.LateActivation {
		return false
	}
	mj, ok := node.(*plan.MergeJoin)
	if !ok {
		return false
	}
	for _, c := range mj.Children() {
		if is, ok := c.(*plan.IndexScan); ok && is.Clustered && is.Ordered {
			return true
		}
	}
	return false
}

// Activate enqueues and starts a gated packet (late activation release), and
// returns once it has decided.
func (rt *Runtime) Activate(pkt *Packet) {
	if pkt.State() == PacketGated && rt.engines[pkt.Node.Op()].Enqueue(pkt) {
		rt.start(pkt)
		pkt.decided.Wait()
	}
}

// DispatchSubtree creates and runs a fresh subtree for reader's query at run
// time (used by the OSP coordinator when it rewrites an evaluation strategy,
// e.g. the ordered-scan join split). It returns the buffer the subtree's root
// writes into, which reader reads.
func (rt *Runtime) DispatchSubtree(reader *Packet, node plan.Node) (*tbuf.Buffer, *Packet) {
	buf := rt.newInput(reader, node)
	return buf, rt.dispatch(reader.Query, node, buf, false)
}

// rescue runs a satellite whose host died before producing output as the
// packet it is, writing to its own port: fresh children feed fresh inputs,
// and its µEngine's Enqueue may attach it to other work as usual. No Submit
// is returning, so nothing waits for a decision; rt.mu covers the closed
// check and the wg.Adds, so no packet starts on a µEngine Close waits for.
// Once closed, the satellite fails, unless it is another host's again.
func (rt *Runtime) rescue(sat *Packet) {
	sat.Inputs, sat.Children = nil, nil
	sat.Out.SetProducer(sat.ID)
	var queued []*Packet
	rt.enqueueChildren(sat, &queued)
	if rt.engines[sat.Node.Op()].Enqueue(sat) {
		queued = append(queued, sat)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.closed {
		rt.start(queued...)
	} else if sat.State() != PacketSatellite {
		sat.CancelSubtree()
		sat.Complete(ErrClosed)
	}
}

// NoteHandOver counts one of q's hand-overs by how it ended.
func (rt *Runtime) NoteHandOver(q *Query, why HandOver) { q.Stats.HandOvers[why].Add(1) }

// liveQueries snapshots active queries (deadlock detector input).
func (rt *Runtime) liveQueries() []*Query {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Query, 0, len(rt.queries))
	for _, q := range rt.queries {
		out = append(out, q)
	}
	return out
}

// Stats snapshots runtime counters.
func (rt *Runtime) Stats() RuntimeStats {
	st := RuntimeStats{
		Queries:          rt.nQueries.Load(),
		SharesByOp:       make(map[plan.OpType]int64),
		KeyFilters:       rt.keyFilters.Load(),
		Folds:            rt.folds.Load(),
		Bounds:           rt.bounds.Load(),
		PagesVisited:     rt.pagesVisited.Load(),
		PagesLocated:     rt.pagesLocated.Load(),
		EngineStats:      make(map[plan.OpType]EngineStats),
		DeadlocksSeen:    rt.deadlocks.Load(),
		Materialized:     rt.materialized.Load(),
		AdmissionQueued:  rt.admit.Queued(),
		Shed:             rt.admit.Shed(),
		DeadlineTimeouts: rt.timeouts.Load(),
	}
	for why := range st.HandOvers {
		st.HandOvers[why] = rt.handOvers[why].Load()
	}
	rt.mu.Lock()
	st.InFlight = int64(len(rt.queries))
	rt.mu.Unlock()
	for op, e := range rt.engines {
		es := e.Stats()
		st.EngineStats[op] = es
		st.Panics += es.Panics
		for why, n := range es.Shares {
			st.Shares[why] += n
			if n > 0 && ShareDecision(why).Shared() {
				st.SharesByOp[op] += n
			}
		}
	}
	return st
}

// TotalShares sums the shares of the sharing ledger across µEngines.
func (rt *Runtime) TotalShares() (n int64) {
	for _, e := range rt.engines {
		for why := ShareAttached; why.Shared(); why++ {
			n += e.shares[why].Load()
		}
	}
	return n
}

// Close shuts the runtime down with a graceful drain: new submissions are
// rejected with ErrClosed immediately, in-flight queries get up to
// Cfg.DrainTimeout to finish, and then the stragglers are cancelled before
// the µEngines stop — those in rt.queries and, so that every packet blocked
// in a buffer wakes, the query of every packet still in flight, which may
// have left rt.queries while the packet serves other queries.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.draining || rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.draining = true

	// Drain wait: idle is broadcast whenever the queries map empties. A
	// timer goroutine bounds the wait by broadcasting too; `expired` tells
	// the cond loop apart from a genuine drain.
	var expired atomic.Bool
	if len(rt.queries) > 0 && rt.Cfg.DrainTimeout > 0 {
		timer := time.AfterFunc(rt.Cfg.DrainTimeout, func() {
			expired.Store(true)
			rt.idle.Broadcast()
		})
		for len(rt.queries) > 0 && !expired.Load() {
			rt.idle.Wait()
		}
		timer.Stop()
	}

	rt.closed = true
	rt.mu.Unlock()
	qs := rt.liveQueries()
	for _, e := range rt.engines {
		e.mu.Lock()
		for _, pkts := range e.inflight {
			for _, p := range pkts {
				qs = append(qs, p.Query)
			}
		}
		e.mu.Unlock()
	}
	for _, q := range qs {
		q.Cancel()
	}
	if rt.detector != nil {
		rt.detector.stop()
	}
	for _, e := range rt.engines {
		e.close()
	}
}
