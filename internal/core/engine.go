// µEngine: the per-operator micro-engine (paper Figure 6a). Each µEngine
// admits packets, runs every admitted packet on a goroutine of its own (the
// Go scheduler is the paper's "local thread pool"; admission control bounds
// the work), and makes the OSP attach decision that scans in-progress work
// for overlap whenever a new packet arrives.
package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"qpipe/internal/plan"
)

// Operator is the relational code a µEngine runs per packet. Run consumes
// pkt.Inputs and writes to pkt.Out; when Run returns (or panics) the engine
// drops the temp files Runtime.TempFile drew for pkt, then closes pkt.Out
// (clean EOF on nil error).
type Operator interface {
	// Op names the µEngine this operator serves.
	Op() plan.OpType
	// Run executes one packet to completion.
	Run(rt *Runtime, pkt *Packet) error
}

// EngineStats counts a µEngine's activity.
type EngineStats struct {
	Enqueued   int64
	Completed  int64
	Shares     [NumShareDecisions]int64 // the packets enqueued here by how their decision ended: they sum to Enqueued
	SubWorkers int64                    // sub-workers run for packets by Runtime.Fan
	Errors     int64
	Panics     int64 // operator panics quarantined (packet failed, µEngine kept serving)
}

// MicroEngine serves one operator type: each admitted packet runs on a
// goroutine of its own, the Go analogue of the paper's threads. No packet
// waits for a worker, so a plan that stacks two nodes of one type, or two
// queries whose packets wait on each other's output, cannot starve on pool
// size; Config.MaxConcurrentQueries is what bounds the work.
type MicroEngine struct {
	rt   *Runtime
	op   plan.OpType
	impl Operator

	mu       sync.Mutex
	inflight map[string][]*Packet // sig -> queued/running host packets

	wg sync.WaitGroup

	enq    atomic.Int64
	done   atomic.Int64
	shares [NumShareDecisions]atomic.Int64 // the µEngine's row of the sharing ledger
	subs   atomic.Int64
	errs   atomic.Int64
	panics atomic.Int64
}

func newMicroEngine(rt *Runtime, impl Operator) *MicroEngine {
	return &MicroEngine{rt: rt, op: impl.Op(), impl: impl, inflight: make(map[string][]*Packet)}
}

// Stats snapshots the engine counters.
func (e *MicroEngine) Stats() EngineStats {
	st := EngineStats{
		Enqueued:   e.enq.Load(),
		Completed:  e.done.Load(),
		SubWorkers: e.subs.Load(),
		Errors:     e.errs.Load(),
		Panics:     e.panics.Load(),
	}
	for why := range st.Shares {
		st.Shares[why] = e.shares[why].Load()
	}
	return st
}

// Fan runs fn(ctx, 0..p-1) concurrently on behalf of the running packet pkt:
// fn(0) on the calling goroutine, the rest as sub-workers of pkt's µEngine —
// the one way operator code runs on another goroutine. Sub-workers are
// counted in EngineStats.SubWorkers and waited for by Close, each on a fresh
// goroutine.
//
// Every worker's ctx is pkt's query context without its cancel, and is
// cancelled, with the failure as its cause, as soon as any worker returns an
// error or panics. The query's own cancel must not reach the workers: the
// runtime releases a query's context as soon as its root finishes, while a
// packet below may still serve another query's satellites (or, for a scan
// group, other queries altogether); a genuine cancel reaches them through
// the torn-down buffers, and Query.CancelErr tells the two apart.
//
// A panic, worker 0's included, becomes *PanicError{Op: pkt's operator},
// counted in EngineStats.Panics. Fan returns the first failure once every
// worker has returned. A runtime without pkt's engine (direct operator
// tests) runs the same way, uncounted.
func (rt *Runtime) Fan(pkt *Packet, p int, fn func(ctx context.Context, k int) error) error {
	op := pkt.Node.Op()
	e := rt.engines[op]
	ctx, cancel := context.WithCancelCause(context.WithoutCancel(pkt.Query.Ctx()))
	defer cancel(nil)
	var (
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	run := func(k int) {
		if err := e.quarantine(op, func() error { return fn(ctx, k) }); err != nil {
			once.Do(func() { first = err; cancel(err) })
		}
	}
	for k := 1; k < p; k++ {
		wg.Add(1)
		e.sub(func() {
			defer wg.Done()
			run(k)
		})
	}
	run(0)
	wg.Wait()
	return first
}

// sub runs fn on a fresh goroutine as a sub-worker of e (uncounted when e is
// nil).
func (e *MicroEngine) sub(fn func()) {
	if e == nil {
		go fn()
		return
	}
	e.subs.Add(1)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		growStack()
		fn()
	}()
}

// quarantine runs fn, turning a panic into *PanicError{Op: op} counted on e
// (uncounted when e is nil).
func (e *MicroEngine) quarantine(op plan.OpType, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: op, Value: r}
			if e != nil {
				e.panics.Add(1)
			}
		}
	}()
	return fn()
}

// Enqueue admits a packet: the µEngine's signature-exact attach first (paper
// §4.3: "every time a new packet queues up in a µEngine, we scan the queue
// with the existing packets to check for overlapping work"), which makes pkt
// a satellite of the first of its Hosts that takes it and reports false;
// else the in-flight set. The decision is counted, a miss naming the last
// refusal in the order tried. Wider windows are decided in Run.
func (e *MicroEngine) Enqueue(pkt *Packet) bool {
	if !pkt.noted { // a rescued satellite comes back noted: the ledger counts packets
		e.enq.Add(1)
	}
	hosts, why := e.rt.Hosts(pkt)
	for _, h := range hosts {
		if why = h.absorbSatellite(e.rt, pkt); why.Shared() {
			return false
		}
	}
	e.rt.NoteShare(pkt, why, nil)
	pkt.setState(PacketQueued)
	if e.rt.decidesInRun(pkt) {
		pkt.decided.Add(1)
		pkt.deciding.Store(true)
	}
	e.mu.Lock()
	e.inflight[pkt.Sig] = append(e.inflight[pkt.Sig], pkt)
	e.mu.Unlock()
	return true
}

// start runs each queued packet on a goroutine of its own, counted in its
// µEngine's wg.
func (rt *Runtime) start(queued ...*Packet) {
	for _, pkt := range queued {
		e := rt.engines[pkt.Node.Op()]
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			growStack()
			e.runPacket(pkt)
		}()
	}
}

// growStack grows the calling goroutine's stack to 8 KB in one copy, while
// the goroutine is a frame deep. Operator code runs several KB deep (a
// scan's page kernel under Fan fits in 8 KB); grown there instead, a new
// goroutine's stack is copied twice, each copy walking every frame on it,
// which cost about 6 % of the CPU of a loop of served point lookups.
//
//go:noinline
func growStack() {
	var pad [3 << 10]byte
	touch(pad[:])
}

//go:noinline
func touch(b []byte) { b[0] = 1 }

// decidesInRun reports whether pkt's Run decides how it shares: with OSP on,
// a scan of a whole table or clustered index rides a scan group or hosts one.
func (rt *Runtime) decidesInRun(pkt *Packet) bool {
	_, table := pkt.Node.(*plan.TableScan)
	is, index := pkt.Node.(*plan.IndexScan)
	return rt.OSPAllowed(pkt.Query) && (table || index && is.Whole())
}

// Hosts returns the packets that may host pkt, by the one eligibility rule of
// the µEngine's attach (Enqueue) and of a sort reusing a sorted file: queued
// and running packets of its signature in another query, not cancelled, with
// OSP on for both (WithoutOSP is bidirectional), and not still deciding in
// their Run (pkt then decides in its own). With none, why names the last
// refusal met, or ShareNoHost. Update packets never share (§4.3.4).
func (rt *Runtime) Hosts(pkt *Packet) (hosts []*Packet, why ShareDecision) {
	e := rt.engines[pkt.Node.Op()]
	if e.op == plan.OpUpdate {
		return nil, ShareUpdate
	}
	if !rt.OSPAllowed(pkt.Query) {
		return nil, ShareOSPOff
	}
	why = ShareNoHost
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.inflight[pkt.Sig] {
		switch {
		case h.Query == pkt.Query:
			why = ShareSameQuery
		case h.Cancelled():
			why = ShareHostCancelled
		case !rt.OSPAllowed(h.Query):
			why = ShareOSPOff
		case h.deciding.Load():
		default:
			hosts = append(hosts, h)
		}
	}
	return hosts, why
}

func (e *MicroEngine) removeInflight(pkt *Packet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if list := slices.DeleteFunc(e.inflight[pkt.Sig], func(p *Packet) bool { return p == pkt }); len(list) > 0 {
		e.inflight[pkt.Sig] = list
	} else {
		delete(e.inflight, pkt.Sig)
	}
}

func (e *MicroEngine) runPacket(pkt *Packet) {
	defer e.removeInflight(pkt)
	defer pkt.decide()
	if pkt.Cancelled() {
		e.rescueSatellites(pkt)
		// Unblock producing children exactly as the normal exit path does.
		for _, in := range pkt.Inputs {
			in.Abandon()
		}
		pkt.finish(pkt.Query.CancelErr())
		return
	}
	pkt.setState(PacketRunning)
	// Panic quarantine: the packet fails with a typed error, its satellites
	// are detached and rescued below exactly like the cancel path, and this
	// goroutine returns normally so the µEngine keeps serving later packets.
	err := pkt.settle(e.quarantine(e.op, func() error { return e.impl.Run(e.rt, pkt) }))
	e.rt.dropTemps(pkt)
	if err != nil {
		e.errs.Add(1)
	}
	e.done.Add(1)
	// Abandon any input not drained to EOF: operators may legitimately
	// finish early (a merge join stops when one side is exhausted), and
	// their producers must not stay blocked on full buffers forever.
	for _, in := range pkt.Inputs {
		in.Abandon()
	}
	if err != nil || pkt.Cancelled() {
		e.rescueSatellites(pkt)
	}
	pkt.finish(err)
}

// rescueSatellites re-homes live satellites of a host that is dying before
// producing any output — typically a host whose own query was cancelled
// after the absorb, which is the host's failure, not the satellites'. Each
// leaves the host's port and runs as itself (rescue). A host that already
// produced output cannot be rescued from: its satellites hold that prefix,
// and re-running would duplicate tuples — they stay absorbed and inherit the
// host's terminal state. Must run before the host closes its port. Sealing
// the satellite list first closes the absorb race: an absorbSatellite
// against this dying host after the seal fails, and its packet queues
// normally instead of missing both rescue and finish.
func (e *MicroEngine) rescueSatellites(pkt *Packet) {
	sats := pkt.sealSatellites()
	if pkt.Out.Produced() > 0 {
		return
	}
	for _, sat := range sats {
		// One already finalized — e.g. the host completed through an
		// operator path (a scan group's Complete) before runPacket observed
		// the cancellation, and finish released the satellites with a
		// genuine result — is not re-dispatched: that would launch a ghost
		// subtree whose output nobody reads.
		if !sat.live() {
			continue
		}
		pkt.removeSatellite(sat)
		pkt.Out.Detach(sat.OutBuf)
		sat.host.Store(nil)
		sat.setState(PacketQueued)
		e.rt.rescue(sat)
	}
}

func (e *MicroEngine) close() { e.wg.Wait() }
