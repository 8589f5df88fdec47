// Circular table scans (paper §4.3.1), partitioned for intra-operator
// parallelism: one scan group per in-progress relation scan. The heap's page
// range splits into P contiguous partitions, each driven by its own scan
// worker with its own circular cursor; partition output merges into every
// attached consumer's tuple buffer. Late-arriving scan packets attach
// immediately — each partition records a per-consumer page debt and wraps at
// its own boundary to serve the pages the consumer missed, generalizing the
// paper's single position() cursor to one progress cursor per partition.
// Per-consumer predicates and projections are applied inside the scan
// µEngine, so packets with *different* predicates still share one page
// stream — which is exactly why QPipe keeps saving I/O in the full-workload
// experiment (Figure 12) even though qgen randomizes every query's selection
// predicates. They are applied to the encoded rows of the pinned page
// (scanrow.go): one pin and the frame's layout serve every attached
// consumer, each paying for the columns it reads and the rows it keeps, and
// the pin ends before any batch is delivered. Ordered scans require page
// order and always run with a single partition.
package ops

import (
	"context"
	"slices"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
)

// pageSource abstracts the page-granular data under a scan: heap files for
// table scans, B+tree leaf chains for clustered index scans. pinPage pins
// page ord and returns its frame with the layout of its live rows of ncols
// columns in stored order, fresh when this visit derived it; the caller
// indexes the frame until it unpins it.
type pageSource interface {
	numPages() int64
	ncols() int
	pinPage(ord int64) (fr *buffer.Frame, l *buffer.Layout, fresh bool, err error)
}

// partition is one contiguous page range [lo, hi) of a scan group, with its
// own circular cursor. Exactly one worker advances each partition's cursor.
type partition struct {
	lo, hi int64
	pos    int64 // next page ordinal to read
}

func (p *partition) size() int64 { return p.hi - p.lo }

// scanConsumer is one packet attached to a scan group. Page debts are per
// partition: a consumer attaching mid-scan owes each partition its full
// range, and the partition's circular wrap serves the pages it missed.
type scanConsumer struct {
	pkt       *core.Packet
	filter    expr.Pred
	project   []int
	prog      *rowProgram // filter and project compiled at attach
	remaining []int64     // pages still owed, per partition
	pending   int         // partitions with remaining > 0
}

// scanner is the paper's "scanner thread", generalized to a partitioned scan
// group: it owns one cursor per partition of the page stream and multiplexes
// pages to all attached consumers. The host packet's worker drives partition
// 0; partitions 1..P-1 fan out to scan sub-workers.
type scanner struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes parked partition workers on attach/teardown

	// hostID is the packet whose worker runs this scanner; every attached
	// consumer's output buffer reports it as producer so the deadlock
	// detector sees the real 1-producer-N-consumers structure (one stalled
	// scanner can otherwise hide a Waits-For cycle — e.g. a self-join whose
	// two inputs ride the same scanner).
	hostID   int64
	src      pageSource
	n        int64
	parts    []partition
	circular bool // wrap at partition end while consumers still need pages

	consumers []*scanConsumer
	done      bool // every consumer served, gone, or failed
}

// newScanner builds a scan group over src split into up to parallelism
// contiguous partitions, at most one a page and half as many as the buffer
// pool has frames: each partition's worker pins a page at a time, and the
// other half is left for every other pin. Ordered (non-circular) scans are
// forced to a single partition: interleaved partition output would break
// page order.
func newScanner(hostID int64, src pageSource, circular bool, parallelism, frames int) *scanner {
	n := src.numPages()
	if !circular {
		parallelism = 1
	}
	parallelism = int(max(1, min(int64(parallelism), n, int64(frames/2))))
	s := &scanner{hostID: hostID, src: src, n: n, circular: circular}
	s.cond = sync.NewCond(&s.mu)
	for k, p := int64(0), int64(parallelism); k < p; k++ {
		s.parts = append(s.parts, partition{lo: n * k / p, hi: n * (k + 1) / p, pos: n * k / p})
	}
	return s
}

// bindProducer points the consumer's output port at this scanner for the
// deadlock detector (covers the packet's own buffer and any satellites
// attached to it, now or later).
func (s *scanner) bindProducer(c *scanConsumer) {
	if c.pkt.Out != nil {
		c.pkt.Out.SetProducer(s.hostID)
	}
}

// attach adds a consumer owing every partition its full range (each
// partition's current position is its termination point). Fails once the
// scanner has finished, or — when requireStart is set (spike-overlap
// semantics, and unordered consumers joining a non-circular scanner) —
// unless the group is a single partition still at page 0: a multi-partition
// group interleaves pages and can never satisfy a consumer that needs them
// in order from the start.
func (s *scanner) attach(c *scanConsumer, requireStart bool) core.ShareDecision {
	c.prog = compileRowProgram(c.filter, c.project, s.src.ncols())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return core.ShareHostDone
	}
	if requireStart && !(len(s.parts) == 1 && s.parts[0].pos == 0) {
		return core.ShareWindowClosed
	}
	c.remaining = make([]int64, len(s.parts))
	c.pending = 0
	for k := range s.parts {
		c.remaining[k] = s.parts[k].size()
		if c.remaining[k] > 0 {
			c.pending++
		}
	}
	s.bindProducer(c)
	if c.pending == 0 {
		// Empty relation: nothing owed, serve EOF immediately.
		c.pkt.Complete(nil)
		return core.ShareRode
	}
	s.consumers = append(s.consumers, c)
	s.cond.Broadcast()
	return core.ShareRode
}

// attachSuffix adds a consumer that only wants the remaining (suffix) part
// of an ordered scan: pages pos..n-1, for the merge-join split and the
// materialized ordered share. Ordered scanners are always single-partition.
// One still at page 0 refuses: a consumer attaches there whole (attach).
func (s *scanner) attachSuffix(c *scanConsumer) (int64, core.ShareDecision) {
	c.prog = compileRowProgram(c.filter, c.project, s.src.ncols())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return 0, core.ShareHostDone
	}
	p := &s.parts[0]
	if s.circular || len(s.parts) != 1 || p.pos == 0 || p.pos >= p.hi {
		return 0, core.ShareWindowClosed
	}
	c.remaining = []int64{p.hi - p.pos}
	c.pending = 1
	s.consumers = append(s.consumers, c)
	s.bindProducer(c)
	s.cond.Broadcast()
	return p.pos, core.ShareRode
}

// run drives the scan group until every consumer is served (or gone). The
// calling worker — the host packet's — drives partition 0 as the paper's
// dedicated scanner thread; the remaining partitions fan out as sub-workers.
// The group outlives its host query, which Fan's context allows for. A
// partition that fails or panics fails the whole group at once, itself,
// before Fan sees it: it ends the group, so every attached consumer completes
// with the error (a panic as the *core.PanicError Fan makes of it) and every
// other partition, parked or scanning, wakes to a done group and exits.
func (s *scanner) run(rt *core.Runtime, host *core.Packet) error {
	s.mu.Lock()
	if len(s.consumers) == 0 {
		s.done = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return rt.Fan(host, len(s.parts), func(_ context.Context, k int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				s.end(&core.PanicError{Op: host.Node.Op(), Value: r})
				panic(r)
			}
			if err != nil {
				s.end(err)
			}
		}()
		return s.runPartition(k)
	})
}

// hungryLocked reports whether any attached consumer still owes pages to
// partition k.
func (s *scanner) hungryLocked(k int) bool {
	for _, c := range s.consumers {
		if c.remaining[k] > 0 {
			return true
		}
	}
	return false
}

// runPartition is one partition's worker loop: visit the next page of the
// range (wrapping at the partition boundary on circular scans), building
// under its one pin the batch of every consumer that still owes pages here,
// then deliver the batches. With no hungry consumer the worker parks until
// a satellite attaches or the group tears down. It returns the error of a
// page it could not build.
func (s *scanner) runPartition(k int) error {
	kern := newPageKernel(s.src.ncols())
	var (
		served []*scanConsumer // consumers owed this page
		tasks  []pageTask      // what each wants of it, and gets
	)
	for {
		s.mu.Lock()
		for {
			if s.done {
				s.mu.Unlock()
				return nil
			}
			if s.hungryLocked(k) {
				break
			}
			s.cond.Wait()
		}
		p := &s.parts[k]
		if p.pos >= p.hi {
			if !s.circular {
				// Ordered scan reached EOF: any remaining consumers are
				// fully served by construction. Its one partition is the
				// only cursor, so nothing can attach before end runs.
				s.mu.Unlock()
				s.end(nil)
				return nil
			}
			p.pos = p.lo
		}
		pg := p.pos
		p.pos++
		// Only this worker decrements remaining[k], so who is owed the page
		// is settled here, under the lock that guards attach — and with it
		// whether the consumer's join has narrowed it, its aggregate handed
		// its accumulators down or its Top-N bounded it, by now. A partial
		// table is registered with its fold here, before the page it is first
		// used for is settled.
		served, tasks = served[:0], tasks[:0]
		for _, c := range s.consumers {
			if c.remaining[k] <= 0 {
				continue
			}
			t := pageTask{prog: c.prog}
			switch h := c.pkt.Handed().(type) {
			case *core.KeyFilter:
				t.keys = h
			case *scanFold:
				t.fold, t.part, t.keys = h, h.partial(k), h.probe
			case *topBound:
				t.bound = h.Load()
			}
			served, tasks = append(served, c), append(tasks, t)
		}
		s.mu.Unlock()

		fresh, err := buildPage(s.src, pg, kern, tasks)
		if err != nil {
			return err
		}
		// The page is unpinned: a consumer blocked on its buffer below holds
		// no frame.
		for i, c := range served {
			c.pkt.Query.Stats.NotePage(fresh)
			if n := tasks[i].skipped; n > 0 {
				c.pkt.Query.Stats.KeyFilterRows.Add(int64(n))
			}
			if n := tasks[i].folded; n > 0 {
				c.pkt.Query.Stats.FoldedRows.Add(int64(n))
			}
			if n := tasks[i].bounded; n > 0 {
				c.pkt.Query.Stats.BoundRows.Add(int64(n))
			}
			s.deliver(c, k, tasks[i].out)
			served[i], tasks[i] = nil, pageTask{}
		}
	}
}

// deliver hands one page's batch (nil when the consumer kept no row of it)
// to one consumer on behalf of partition k and settles the page debt. The
// Put happens unlocked so a slow consumer only throttles this partition.
//
// Cancellation is detected through the consumer's output port, not the
// packet flag: a cancelled query abandons its own buffers (Put then fails),
// but the packet may still be a conduit for satellites of *other* queries
// attached to its port, which must keep receiving the full stream — eagerly
// dropping the consumer would hand those satellites a truncated stream with
// a clean EOF.
func (s *scanner) deliver(c *scanConsumer, k int, out tbuf.Batch) {
	if len(out) > 0 {
		if s.put(c, out) != nil {
			// The port stopped and keeps why: the packet's completion
			// reads it, a clean end or the consumer's failure.
			s.detach(c, nil)
			return
		}
	} else if c.pkt.Cancelled() && !c.pkt.Out.PruneDead() {
		// A cancelled consumer whose filter matches nothing never Puts, so
		// the port would never report its death — probe explicitly rather
		// than scanning the rest of the table for a dead query. (A cancelled
		// consumer with live satellites still attached keeps being served:
		// it is their conduit.)
		s.detach(c, nil)
		return
	}
	s.mu.Lock()
	c.remaining[k]--
	finished := false
	if c.remaining[k] == 0 {
		c.pending--
		finished = c.pending == 0
	}
	s.mu.Unlock()
	if finished {
		s.detach(c, nil)
	}
}

// put hands a page's kept rows to the consumer's port: as the one batch
// they are, unless the query set a batch size (WithBatchSize) — then in
// batches of at most that many rows, since a scan at the root of a plan has
// no emitter above it to re-batch. The runtime's default size does not
// chunk: one Put per page is what keeps a scan cheap.
func (s *scanner) put(c *scanConsumer, out tbuf.Batch) error {
	n := c.pkt.Query.Opts.BatchSize
	if n <= 0 || len(out) <= n {
		return c.pkt.Out.Put(out)
	}
	// Each piece is clipped to its length, so no consumer reaches past it
	// into the next.
	for rest := out; len(rest) > 0; {
		m := min(n, len(rest))
		if err := c.pkt.Out.Put(rest[:m:m]); err != nil {
			return err
		}
		rest = rest[m:]
	}
	return nil
}

func (s *scanner) detach(c *scanConsumer, err error) {
	s.mu.Lock()
	s.consumers = slices.DeleteFunc(s.consumers, func(x *scanConsumer) bool { return x == c })
	if len(s.consumers) == 0 {
		s.done = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	c.pkt.Complete(err)
}

// end ends a group that has not ended yet: every consumer still attached
// completes with err (nil: served in full), and every partition exits.
func (s *scanner) end(err error) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	consumers := s.consumers
	s.consumers = nil
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, c := range consumers {
		c.pkt.Complete(err)
	}
}

// scanRegistry tracks live scanners per key (table, or table+index).
type scanRegistry struct {
	mu       sync.Mutex
	scanners map[string][]*scanner
}

func newScanRegistry() *scanRegistry {
	return &scanRegistry{scanners: make(map[string][]*scanner)}
}

// hostOrJoin is a scan packet's one group decision, settled under the
// registry's lock: consumer c gets its pages as one more consumer of a live
// scanner of key that can still serve it whole (a share; the scanner
// completes c's packet) — ordered consumers have a spike WoP, unordered ones
// can join a circular scan group anywhere but a one-shot (ordered) scanner
// only at its very start — or else from the scanner newScanner makes,
// registered with c attached before the lock is released. So of two packets
// that run at once, one hosts and the other rides. A miss names the last
// live scanner's refusal, or ShareNoHost.
func (r *scanRegistry) hostOrJoin(key string, c *scanConsumer, ordered bool, newScanner func() *scanner) (*scanner, core.ShareDecision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	why := core.ShareNoHost
	for _, s := range r.scanners[key] {
		if why = s.attach(c, ordered || !s.circular); why.Shared() {
			return s, why
		}
	}
	s := newScanner()
	s.attach(c, false)
	r.scanners[key] = append(r.scanners[key], s)
	return s, why
}

// run serves c's packet, whose µEngine goroutine is the caller, with a scan
// of src: hosting a new scan group (unregistered when the query opted out of
// OSP), or riding one in progress until that group has completed the packet
// (a cancellation reaches it through its port). Noting hostOrJoin's decision
// releases the dispatch waiting for it.
func (r *scanRegistry) run(rt *core.Runtime, key string, c *scanConsumer, ordered bool, src pageSource, par int) error {
	pkt := c.pkt
	newGroup := func() *scanner {
		return newScanner(pkt.ID, src, !ordered, par, rt.SM.Pool.Capacity())
	}
	if !rt.OSPAllowed(pkt.Query) {
		s := newGroup()
		s.attach(c, false)
		return s.run(rt, pkt)
	}
	s, why := r.hostOrJoin(key, c, ordered, newGroup)
	rt.NoteShare(pkt, why, nil)
	if why.Shared() {
		<-pkt.Done()
		return pkt.Err()
	}
	defer r.remove(key, s)
	return s.run(rt, pkt)
}

func (r *scanRegistry) remove(key string, s *scanner) {
	r.mu.Lock()
	if list := slices.DeleteFunc(r.scanners[key], func(x *scanner) bool { return x == s }); len(list) > 0 {
		r.scanners[key] = list
	} else {
		delete(r.scanners, key)
	}
	r.mu.Unlock()
}

// visit iterates live scanners for a key until fn returns true.
func (r *scanRegistry) visit(key string, fn func(*scanner) bool) {
	r.mu.Lock()
	list := append([]*scanner(nil), r.scanners[key]...)
	r.mu.Unlock()
	for _, s := range list {
		if fn(s) {
			return
		}
	}
}

// ---- Table-scan µEngine -------------------------------------------------------

// heapSource visits heap-file pages: the live slots, tombstones skipped.
type heapSource struct{ f *heap.File }

func (h heapSource) numPages() int64 { return h.f.NumPages() }
func (h heapSource) ncols() int      { return h.f.Schema.Len() }
func (h heapSource) pinPage(p int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	return h.f.PinPage(p)
}

// TableScanOp is the file-scan µEngine with partitioned circular-scan
// sharing.
type TableScanOp struct {
	reg *scanRegistry
}

// NewTableScanOp creates the table-scan µEngine implementation.
func NewTableScanOp() *TableScanOp { return &TableScanOp{reg: newScanRegistry()} }

// Op implements core.Operator.
func (o *TableScanOp) Op() plan.OpType { return plan.OpTableScan }

// Run implements core.Operator: an unordered scan packet rides any scan group
// of its table in progress, whatever its signature, predicates or
// partitioning; an ordered one only a single-partition group still at page 0
// (the "first output page still in memory" case). Otherwise it hosts a new
// group, driving partition 0 and fanning out the rest (scanRegistry.run).
func (o *TableScanOp) Run(rt *core.Runtime, pkt *core.Packet) error {
	node := pkt.Node.(*plan.TableScan)
	tb, err := rt.SM.Table(node.Table)
	if err != nil {
		return err
	}
	// No lock is taken here: the query acquired its shared lock on the
	// table at submit (§4.3.4 — "if a table is locked for writing, the scan
	// packet will simply wait, and with it all satellite ones"; the wait now
	// happens at admission). Every attached satellite's own query holds its
	// own shared lock, so the group's page reads stay covered even after
	// the host query finishes.
	c := &scanConsumer{pkt: pkt, filter: node.Filter, project: node.Project}
	return fenced(tb, func() error {
		return o.reg.run(rt, "tbl:"+node.Table, c, node.Ordered, heapSource{f: tb.Heap}, rt.ParallelismFor(pkt.Query))
	})
}

// fenced runs scan of tb's rows. The scan group (host plus any satellites that
// attach mid-flight) must observe one committed state of the table: the
// overlap chain of query-level shared locks excludes committing writers for
// the group's whole life, and checking the commit counter turns a violation
// of that invariant into a hard error instead of silently torn results.
func fenced(tb *sm.Table, scan func() error) error {
	fence := tb.CommitSeq()
	if err := scan(); err != nil {
		return err
	}
	if end := tb.CommitSeq(); end != fence {
		return &sm.TornScanError{Table: tb.Name, Start: fence, End: end}
	}
	return nil
}
