// Package core implements the QPipe runtime: the paper's primary
// contribution (§4). Queries arrive as precompiled plans, are cut into one
// packet per plan node by the packet dispatcher, and queue up at per-operator
// micro-engines (µEngines) that run each on a goroutine of its own. On-demand
// simultaneous pipelining (OSP) happens at packet admission: a new packet
// whose encoded argument list matches in-progress work becomes a *satellite*
// of the in-progress *host* packet and receives the host's output
// simultaneously, while its own child subtree is cancelled.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/plan"
)

// PacketState tracks a packet through its lifecycle.
type PacketState int32

// Packet lifecycle states.
const (
	PacketQueued PacketState = iota
	PacketGated              // created but awaiting late activation (§4.3.1)
	PacketRunning
	PacketDone
	PacketCancelled
	PacketSatellite // absorbed by a host packet; never executed itself
)

func (s PacketState) String() string {
	return [...]string{"queued", "gated", "running", "done", "cancelled", "satellite"}[s]
}

var packetSeq atomic.Int64

// Packet is the unit of work a query enqueues at a µEngine: one plan node
// plus its input buffers (fed by child packets) and its output port.
type Packet struct {
	ID    int64
	Query *Query
	Node  plan.Node
	// Sig is the encoded argument list produced by the packet dispatcher,
	// rendered once per packet, bottom up (plan.SignatureOver); µEngines
	// compare signatures to detect overlapping work (§4.3).
	Sig string

	// Out is the packet's output port; satellites attach here.
	Out *tbuf.SharedOut
	// OutBuf is the primary consumer buffer behind Out (the parent's input,
	// or the query's result buffer for the root packet).
	OutBuf *tbuf.Buffer
	// Inputs are the buffers filled by child packets, in child order.
	Inputs []*tbuf.Buffer
	// Children are the packets producing Inputs.
	Children []*Packet

	state     atomic.Int32
	host      atomic.Pointer[Packet] // non-nil when satellite
	done      chan struct{}
	doneOnce  sync.Once
	runErr    error
	cancelled atomic.Bool

	satMu      sync.Mutex
	satellites []*Packet    // packets absorbed by this host
	satSealed  bool         // host finished/finishing or handed something; no more satellites
	hosted     bool         // a satellite was absorbed at some point
	taken      bool         // TakeHanded read the slot: nothing is installed any more
	handed     atomic.Value // the one *KeyFilter, fold or bound handOver installed

	temps []string // temp files Runtime.TempFile drew for this packet, dropped after Run

	share ShareDecision // what NoteShare last counted for the packet, if noted
	noted bool

	// deciding is set while the packet's Run has yet to decide how it
	// shares (Runtime.decidesInRun); whoever started it waits on decided.
	deciding atomic.Bool
	decided  sync.WaitGroup
}

// decide ends the packet's deciding, once, and yields so that the waiter goes
// on before the scan this packet may host: on one P a scan and its reader
// would hand the P to each other until the scan ended.
func (p *Packet) decide() {
	if p.deciding.CompareAndSwap(true, false) {
		p.decided.Done()
		runtime.Gosched()
	}
}

// KeyFilter is a hash join's build keys as its probe scan sees them, in one
// of two forms the join chooses once. A direct table (Dense non-nil), when
// every build key is an INT or a DATE within ±2^53 over a short span:
// Dense[k-Base] is 1 + the newest build row whose key is k (0: none) and
// Next[b] 1 + the next older build row with b's key (0: none), so a probe
// key is looked up exactly, without a hash. Otherwise a bitmap: bit
// h >> Shift of Bits is set for the hash h (tuple.Hash1) of every build
// key, so a probe row whose key's bit is clear joins nothing. Bits holds
// 2^(64-Shift) bits.
type KeyFilter struct {
	Col   int // the probe key's table column
	Shift uint
	Bits  []uint64
	Base  int64
	Dense []int32
	Next  []int32
}

// HandOver says how handing something down to a packet ended: installed, or
// why not — the packet's own four reasons (handOver), then those for which a
// µEngine never gets as far as asking (Runtime.NoteHandOver).
type HandOver uint8

const (
	HandOverInstalled HandOver = iota
	HandOverSatellite
	HandOverEverHosted
	HandOverSealed
	HandOverLate
	HandOverNotAScan
	HandOverBoundedIndexRange
	HandOverBuildTooLarge
	NumHandOvers
)

func (h HandOver) String() string {
	return [...]string{"installed", "satellite", "ever-hosted", "sealed", "late",
		"not-a-scan", "bounded-index-range", "build-too-large"}[h]
}

// ShareDecision is how a packet's OSP decision ended: a share, by the way the
// packet got its tuples, or the reason it did not (Runtime.NoteShare).
type ShareDecision uint8

const (
	ShareAttached        ShareDecision = iota // onto a host's port (signature-exact)
	ShareRode                                 // a running packet read other work in progress: a scan group, an ordered scan's suffix, a sorted file
	ShareSplit                                // a merge join split onto an ordered scan in progress
	ShareUpdate                               // update packets never share (§4.3.4)
	ShareOSPOff                               // OSP is off for the packet's query or the host's
	ShareNoHost                               // nothing in progress to share
	ShareSameQuery                            // the only host is in the packet's own query
	ShareHostDone                             // the host finished
	ShareHostCancelled                        // the host was cancelled
	ShareHostIsSatellite                      // the host is itself a satellite
	ShareHostSealed                           // the host handed something down or is finishing
	ShareWindowClosed                         // the host is past its window of opportunity
	NumShareDecisions
)

func (d ShareDecision) String() string {
	return [...]string{"attached", "rode", "split", "update", "osp-off", "no-host",
		"same-query", "host-done", "host-cancelled", "host-is-satellite", "host-sealed", "window-closed"}[d]
}

// Shared reports whether the decision was a share.
func (d ShareDecision) Shared() bool { return d <= ShareSplit }

// handOver is the one rule by which a packet's only reader changes what the
// packet does for it. It refuses a packet that is or ever hosted a satellite,
// whose output somebody else reads, and one that looked already (TakeHanded),
// and seals the one it accepts: a later packet of the same signature is not
// absorbed but runs on its own — a scan as one more consumer of the same
// scanner, so the pages are still read once.
func (p *Packet) handOver(rt *Runtime, what any, installed *atomic.Int64) HandOver {
	p.satMu.Lock()
	defer p.satMu.Unlock()
	why := HandOverInstalled
	switch {
	case p.State() == PacketSatellite:
		why = HandOverSatellite
	case p.hosted:
		why = HandOverEverHosted
	case p.satSealed:
		why = HandOverSealed
	case p.taken:
		why = HandOverLate
	default:
		p.satSealed = true
		p.handed.Store(what)
		if installed == nil { // a fold a join passes on: counted when the join's packet took it
			return why
		}
		installed.Add(1)
	}
	rt.NoteHandOver(p.Query, why)
	return why
}

// Narrow lets a hash join holding its finished build side tell its probe scan
// which rows it will throw away (the scan may keep others: the join compares).
func (p *Packet) Narrow(rt *Runtime, f *KeyFilter) HandOver { return p.handOver(rt, f, &rt.keyFilters) }

// SetFold lets an aggregate hand its accumulators (the ops package's) to its
// input: a scan, which then adds the rows it keeps to them instead of building,
// or a hash join, which passes them on to its probe scan with its build side.
func (p *Packet) SetFold(rt *Runtime, fold any) HandOver { return p.handOver(rt, fold, &rt.folds) }

// SetBound lets a Top-N hand its scan the n-th first sort key it holds (the ops
// package's, tightened as better rows arrive): the scan then builds no row the
// heap could not keep.
func (p *Packet) SetBound(rt *Runtime, bound any) HandOver { return p.handOver(rt, bound, &rt.bounds) }

// PassFold is that join's SetFold.
func (p *Packet) PassFold(rt *Runtime, fold any) HandOver { return p.handOver(rt, fold, nil) }

// Handed returns what was installed, or nil; the scanner loads it page by page.
func (p *Packet) Handed() any { return p.handed.Load() }

// TakeHanded is Handed for a reader that looks once, a hash join whose build
// has ended: the read closes the slot, and a later SetFold is refused as late.
func (p *Packet) TakeHanded() any {
	p.satMu.Lock()
	defer p.satMu.Unlock()
	p.taken = true
	return p.handed.Load()
}

// absorbSatellite atomically commits sat as a satellite of this host, which
// must not be done, cancelled or itself a satellite, and whose port must
// still take a consumer: nothing produced yet, or all of it in the replay
// window. The whole commit happens under the lock that finish and the rescue
// path seal the list with, so an absorb never interleaves with the host's
// teardown — which would strand the satellite (attached after the final
// sweep, done channel never closed), hand an innocent query the host's
// terminal error, or let a rescue replace the satellite's children while they
// are discarded. On a miss the caller queues sat.
func (p *Packet) absorbSatellite(rt *Runtime, sat *Packet) ShareDecision {
	switch p.State() {
	case PacketDone:
		return ShareHostDone
	case PacketCancelled:
		return ShareHostCancelled
	case PacketSatellite:
		return ShareHostIsSatellite
	}
	p.satMu.Lock()
	defer p.satMu.Unlock()
	if p.satSealed {
		return ShareHostSealed
	}
	if !p.Out.Attach(sat.OutBuf) {
		return ShareWindowClosed
	}
	sat.host.Store(p)
	sat.setState(PacketSatellite)
	// OSP coordinator steps 1-2 (Figure 6b): terminate everything beneath
	// the satellite — not the satellite, whose port the host feeds.
	sat.cancelBelow()
	rt.NoteShare(sat, ShareAttached, p.Query)
	p.hosted = true
	p.satellites = append(p.satellites, sat)
	return ShareAttached
}

// HasLiveSatellites reports whether any absorbed satellite still awaits this
// packet's output. Streaming hosts consult it when their own query is
// cancelled mid-stream (a satisfied LIMIT, an abandoned Result): the host's
// cancellation is not the satellites' failure, and a host that already
// produced output cannot be rescued from (the satellites hold that prefix),
// so the host keeps producing for them instead.
func (p *Packet) HasLiveSatellites() bool {
	p.satMu.Lock()
	defer p.satMu.Unlock()
	return slices.ContainsFunc(p.satellites, (*Packet).live)
}

// live reports whether the packet still awaits its output: neither finished
// nor cancelled.
func (p *Packet) live() bool {
	select {
	case <-p.done:
		return false
	default:
		return !p.Cancelled()
	}
}

// removeSatellite detaches sat from the host's satellite list (the rescue
// path re-homes it) so the host's finish no longer owns its completion.
func (p *Packet) removeSatellite(sat *Packet) {
	p.satMu.Lock()
	defer p.satMu.Unlock()
	p.satellites = slices.DeleteFunc(p.satellites, func(s *Packet) bool { return s == sat })
}

// sealSatellites closes the host's satellite list to further absorbs (a
// late absorbSatellite fails and its packet falls back to normal queueing)
// and returns the current set. Idempotent.
func (p *Packet) sealSatellites() []*Packet {
	p.satMu.Lock()
	defer p.satMu.Unlock()
	p.satSealed = true
	return slices.Clone(p.satellites)
}

// finish ends the packet's stream with its settled terminal error, marks it
// done and releases its satellites with the same error.
func (p *Packet) finish(err error) {
	p.Out.Close(err)
	st := PacketDone
	if err != nil {
		st = PacketCancelled
	}
	p.markDone(err, st)
	for _, s := range p.sealSatellites() {
		s.markDone(err, PacketSatellite)
	}
}

func newPacket(q *Query, node plan.Node) *Packet {
	return &Packet{
		ID:    packetSeq.Add(1),
		Query: q,
		Node:  node,
		done:  make(chan struct{}),
	}
}

// State returns the packet's current lifecycle state.
func (p *Packet) State() PacketState { return PacketState(p.state.Load()) }

func (p *Packet) setState(s PacketState) { p.state.Store(int32(s)) }

// Host returns the host packet if this packet was absorbed as a satellite.
func (p *Packet) Host() *Packet { return p.host.Load() }

// Cancelled reports whether the packet (or its query) was cancelled.
func (p *Packet) Cancelled() bool {
	return p.cancelled.Load() || p.Query.ctx.Err() != nil
}

// markDone finalizes the packet with an error (nil on success).
func (p *Packet) markDone(err error, st PacketState) {
	p.doneOnce.Do(func() {
		p.runErr = err
		p.setState(st)
		close(p.done)
	})
}

// Done returns a channel closed when the packet finishes (done, cancelled,
// or absorbed as a satellite whose host finished).
func (p *Packet) Done() <-chan struct{} { return p.done }

// Err returns the packet's terminal error after Done.
func (p *Packet) Err() error { return p.runErr }

// CancelSubtree cancels this packet and everything beneath it.
func (p *Packet) CancelSubtree() {
	p.cancelled.Store(true)
	p.cancelBelow()
}

// cancelBelow terminates everything beneath the packet: input buffers are
// abandoned so producing children unblock and stop, and child packets are
// discarded recursively. This is OSP coordinator step 2 — "notifies Q2's
// children operators to terminate (recursively, for the entire subtree
// underneath the join node)".
func (p *Packet) cancelBelow() {
	for _, in := range p.Inputs {
		in.Abandon()
	}
	for _, c := range p.Children {
		c.Discard()
	}
}

// String renders the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d[%s q%d %s]", p.ID, p.Node.Op(), p.Query.ID, p.State())
}

// ---- Query -------------------------------------------------------------------

var querySeq atomic.Int64

// QueryStats accumulates per-query counters. Its sharing counters are the
// query's rows of the sharing ledger, which Runtime.NoteShare alone writes.
type QueryStats struct {
	// Packets is the number of packets dispatched (plan nodes).
	Packets int64
	// HostedSatellites counts foreign packets attached to this query's hosts
	// or reading a sorted file of theirs.
	HostedSatellites atomic.Int64
	// KeyFilterRows counts rows this query's scans did not build because
	// the hash join above them had no build key for them (Packet.Narrow).
	KeyFilterRows atomic.Int64
	// FoldedRows counts rows (through a join: pairs) this query's scans added up unbuilt (Packet.SetFold).
	FoldedRows atomic.Int64
	// BoundRows counts rows this query's scans did not build because the
	// Top-N above them could no longer keep them (Packet.SetBound).
	BoundRows atomic.Int64
	// HandOvers counts this query's hand-overs by how they ended.
	HandOvers [NumHandOvers]atomic.Int64
	// Shares counts this query's enqueued packets by how their decision
	// ended (Runtime.NoteShare).
	Shares [NumShareDecisions]atomic.Int64
	// PagesVisited counts the pages this query's scan consumers were served;
	// PagesLocated those among them whose layout the visit had to derive, no
	// earlier scan of the resident page having left one (buffer.Layout). A
	// page serving several consumers counts for each: the counters say what a
	// query's scans were served from, the pool's Layouts what is resident.
	PagesVisited atomic.Int64
	PagesLocated atomic.Int64
}

// SatelliteAttaches counts this query's shares: its packets that got their
// tuples from another query's work.
func (s *QueryStats) SatelliteAttaches() (n int64) {
	for why := ShareAttached; why.Shared(); why++ {
		n += s.Shares[why].Load()
	}
	return n
}

// NotePage counts one page served to one of the query's scan consumers;
// fresh says the visit derived the page's layout.
func (s *QueryStats) NotePage(fresh bool) {
	s.PagesVisited.Add(1)
	if fresh {
		s.PagesLocated.Add(1)
	}
}

// QueryOptions carries per-query execution knobs. Options travel with the
// query — packets consult their owning query, not the global config — so two
// concurrent queries can run with different parallelism, batch size or OSP
// participation on one runtime. The zero value inherits every runtime
// default.
type QueryOptions struct {
	// Parallelism overrides Config.ScanParallelism for every parallel
	// operator of this query (0 = inherit).
	Parallelism int
	// DisableOSP opts the query out of on-demand simultaneous pipelining in
	// both directions: its packets never attach to in-progress work and
	// never host satellites of other queries.
	DisableOSP bool
	// BatchSize overrides Config.BatchSize for this query's operators
	// (0 = inherit).
	BatchSize int
	// Deadline is an absolute per-query deadline (zero = none). The runtime
	// derives the query context from it, so expiry tears the query down
	// through the same active-cancellation path as a caller cancel, and the
	// terminal error is a typed *DeadlineError.
	Deadline time.Time
	// Timeout is a relative per-query budget (0 = none), measured from
	// Submit. When both Timeout and Deadline are set the earlier instant
	// wins. Kept distinct from Deadline so the *DeadlineError can report
	// the configured budget.
	Timeout time.Duration
	// Reader is the Waits-For node that reads the query's result (NewReader;
	// 0, every embedded reader's node, when unset). Only the server sets it,
	// once per connection.
	Reader int64
}

// Query is one client request in flight.
type Query struct {
	ID   int64
	Opts QueryOptions
	ctx  context.Context
	stop context.CancelFunc
	// deadline/timeout mirror the resolved per-query deadline (zero when
	// none was set); CancelErr uses them to type the expiry error.
	deadline time.Time
	timeout  time.Duration
	// finished closes once the root packet's chain completes (set by the
	// runtime's cleanup goroutine); the context watcher exits on it.
	finished chan struct{}

	Root *Packet
	// Result is the buffer the root packet's output lands in; the client
	// drains it.
	Result *tbuf.Buffer

	Stats QueryStats

	// userCancelled marks caller-initiated teardown (Cancel), as opposed to
	// the administrative context release after the query finishes.
	userCancelled atomic.Bool
	// committed marks a query past its point of no return (BeginCommit):
	// Cancel no longer tears it down, and CancelErr reports nothing.
	committed atomic.Bool

	mu      sync.Mutex
	packets []*Packet
	buffers []*tbuf.Buffer
	gated   []*Packet
}

func newQuery(ctx context.Context, opts QueryOptions) *Query {
	q := &Query{ID: querySeq.Add(1), Opts: opts, finished: make(chan struct{})}
	// Resolve the per-query deadline: the earlier of the absolute Deadline
	// and Submit-time + Timeout. The caller's own context deadline (if any)
	// still applies through context derivation.
	q.deadline, q.timeout = opts.Deadline, opts.Timeout
	if opts.Timeout > 0 {
		if d := time.Now().Add(opts.Timeout); q.deadline.IsZero() || d.Before(q.deadline) {
			q.deadline = d
		}
	}
	var cancel context.CancelFunc
	if !q.deadline.IsZero() {
		// WithDeadline's cancel releases the timer; folding it into stop
		// keeps the query's single teardown hook.
		ctx, cancel = context.WithDeadline(ctx, q.deadline)
	}
	qctx, stop := context.WithCancel(ctx)
	q.ctx = qctx
	if cancel != nil {
		q.stop = func() { stop(); cancel() }
	} else {
		q.stop = stop
	}
	return q
}

// Deadline returns the query's resolved absolute deadline (zero when none).
func (q *Query) Deadline() time.Time { return q.deadline }

// Ctx returns the query's context.
func (q *Query) Ctx() context.Context { return q.ctx }

// CancelErr returns the query's cancellation error, or nil when the query
// was not genuinely cancelled. Only Cancel — the caller-initiated teardown
// path (explicit Result.Cancel, the context watcher, runtime Close) — sets
// the flag this consults; the runtime's cleanup releases the query context
// with a bare stop() after the query finishes, and that administrative
// teardown must not read as a failure to packets legitimately outliving
// the root (e.g. a producer a merge join abandoned after exhausting its
// other side). A passed deadline is never that release, so it counts before
// the context watcher's Cancel has run: an operator that stopped on the
// query's context (a lock wait) ends with the typed error, not a bare one.
// A query past BeginCommit reports none: it ends with its commit's outcome.
func (q *Query) CancelErr() error {
	err := q.ctx.Err()
	if q.committed.Load() || !q.userCancelled.Load() && !errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	if err == nil {
		err = context.Canceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// A deadline expiry — the query's own Deadline/Timeout option, or
		// the caller context's — surfaces as the typed error (which still
		// unwraps to context.DeadlineExceeded).
		return &DeadlineError{Timeout: q.timeout, Deadline: q.deadline}
	}
	return err
}

// Cancel aborts the query: all its buffers wake with abandonment so blocked
// operators unwind. A query past BeginCommit is not aborted.
func (q *Query) Cancel() {
	q.mu.Lock()
	if q.committed.Load() {
		q.mu.Unlock()
		return
	}
	q.userCancelled.Store(true)
	bufs := append([]*tbuf.Buffer(nil), q.buffers...)
	packets := append([]*Packet(nil), q.packets...)
	q.mu.Unlock()
	q.stop()
	for _, p := range packets {
		p.cancelled.Store(true)
	}
	for _, b := range bufs {
		b.Abandon()
	}
}

// BeginCommit is the point of no return of a query that changes durable
// state (the update µEngine calls it right before its commit is logged). It
// fails with the cancellation error if the query was cancelled or its
// deadline passed first — nothing is committed then. Once it succeeds, a
// later cancel — the caller's, the deadline's, the runtime's — comes too
// late: it is ignored, and the query ends with the commit's real outcome,
// so a reply never calls a committed mutation failed.
func (q *Query) BeginCommit() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.CancelErr(); err != nil {
		return err
	}
	if err := q.ctx.Err(); err != nil {
		return err // the caller's cancel, before its watcher ran Cancel
	}
	q.committed.Store(true)
	return nil
}

func (q *Query) addPacket(p *Packet) {
	q.mu.Lock()
	q.packets = append(q.packets, p)
	q.Stats.Packets++
	q.mu.Unlock()
}

func (q *Query) addBuffer(b *tbuf.Buffer) {
	q.mu.Lock()
	q.buffers = append(q.buffers, b)
	q.mu.Unlock()
}

// Packets snapshots the query's dispatched packets.
func (q *Query) Packets() []*Packet {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*Packet(nil), q.packets...)
}

// Buffers snapshots the query's buffers (deadlock detector input).
func (q *Query) Buffers() []*tbuf.Buffer {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*tbuf.Buffer(nil), q.buffers...)
}

// Wait blocks until the root packet (or its host chain) finishes and
// returns its terminal error. The result buffer may still hold undrained
// batches; callers normally Drain first.
//
// Each packet's error was settled against its own query (Packet.settle). A
// root absorbed as a satellite carries its host's, settled against the
// host's query; a cancelled query tears its buffers down under that host, so
// Wait reads the teardown's error (tbuf.ErrAbandoned) as this query's typed
// cancellation error (CancelErr).
func (q *Query) Wait() error {
	root := q.Root
	for {
		<-root.Done()
		if root.State() == PacketSatellite {
			if h := root.Host(); h != nil {
				root = h
				continue
			}
		}
		err := root.Err()
		if errors.Is(err, tbuf.ErrAbandoned) {
			if cerr := q.CancelErr(); cerr != nil {
				return cerr
			}
		}
		return err
	}
}
