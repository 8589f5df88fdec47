// Package tbuf implements QPipe's intermediate tuple buffers: the bounded
// producer/consumer queues that link µEngines into pipelines (paper §4.2,
// "data flow between µEngines occurs through dedicated buffers"), and the
// fan-out ports that pipeline one operator's output to many queries
// simultaneously (the 1-producer, N-consumers relationship of §4.3).
//
// Three paper mechanisms live here:
//
//   - Bounded flow control: a full buffer blocks the producer, so all
//     participants "adjust their consuming speed to the speed of the
//     slowest consumer".
//   - The buffering enhancement function (§3.2, Figure 4b): SharedOut
//     retains a bounded replay window of produced tuples so a satellite can
//     attach after the first output tuple and still receive everything
//     (OSP coordinator step 3: "copies the output tuples ... still in Q1's
//     buffer, to Q2's output buffer").
//   - Materialization on demand: SetUnbounded lifts a buffer's bound, which
//     is how the deadlock detector breaks cycles by materializing a buffer
//     instead of blocking (§4.3.3).
//
// Memory: rows are immutable once Put and are shared by reference — with a
// port's replay window and with every satellite. The arrays that carry them
// are plain garbage-collected memory, sized to what they carry: the primary
// consumer gets the producer's array, every satellite a copy of its own, so
// a consumer owns the batch Get returns and may reorder it, never its rows.
package tbuf

import (
	"errors"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"qpipe/internal/tuple"
)

// Batch is a group of tuples moved through a buffer at once (push-based
// engines move batches, not single tuples, to amortize synchronization; cf.
// the paper's discussion of buffering [31]). A producer gives up the batch
// it Puts; the consumer its Get returns it to owns it.
type Batch = []tuple.Tuple

// BatchPool once recycled batch arrays of one size.
//
// Deprecated: arrays are garbage-collected; nothing is pooled.
type BatchPool struct{ size int }

// NewBatchPool returns a BatchPool whose Get makes batches of capacity size.
//
// Deprecated: arrays are garbage-collected; nothing is pooled.
func NewBatchPool(size int) *BatchPool { return &BatchPool{size: size} }

// Get returns an empty batch of the pool's capacity.
//
// Deprecated: make the batch; nothing is pooled.
func (p *BatchPool) Get() Batch { return make(Batch, 0, p.size) }

// ErrAbandoned is returned by Put after the consumer abandoned the buffer
// (its query was cancelled or became a satellite of another packet).
var ErrAbandoned = errors.New("tbuf: consumer abandoned buffer")

// ErrConsumersGone is why a SharedOut stopped when every attached consumer
// abandoned its buffer: the port's work is wanted by nobody. Only the
// packet's completion in core reads it, as a clean end unless the query was
// cancelled; a stop for a consumer's hard error keeps that error instead.
var ErrConsumersGone = errors.New("tbuf: all consumers gone")

// State classifies buffer occupancy for the deadlock detector's Waits-For
// graph, which needs exactly the full/empty/non-empty distinction of the
// paper's model (§4.3.3).
type State int

// Buffer occupancy states.
const (
	StateEmpty State = iota
	StatePartial
	StateFull
)

func (s State) String() string {
	return [...]string{"empty", "partial", "full"}[s]
}

// Buffer is a bounded FIFO of batches with one producer and one consumer.
type Buffer struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	// queue[head:] is the FIFO. Get advances head and rewinds both to the
	// array's start when the queue drains, so a buffer that empties between
	// batches keeps one array; Put slides the queued batches down instead of
	// growing once half the array lies behind head.
	queue     []Batch
	head      int
	capacity  int // max queued batches; <=0 means unbounded
	closed    bool
	closeErr  error
	abandoned bool

	putBlocked bool
	getBlocked bool

	totalIn  int64
	totalOut int64

	// Producer and Consumer are packet IDs used by the deadlock detector
	// to build Waits-For edges. They are atomics because OSP re-binds a
	// buffer's producer at run time: a scan consumer attached to a shared
	// circular scanner reports the scanner's host packet as its producer,
	// so the detector sees the 1-producer-N-consumers structure (§4.3.3).
	Producer atomic.Int64
	Consumer atomic.Int64

	// Label names the buffer in diagnostics (e.g. "q3/sort->mjoin").
	Label Label
}

// Label names a buffer in diagnostics by its query and the operators on its
// ends, kept as they are and rendered only by String.
type Label struct {
	Query    int64
	From, To string // From is empty for a buffer named by To alone
}

// String renders the label: "q3/sort->mjoin", "q3/result" without From, or
// nothing for an unlabelled buffer.
func (l Label) String() string {
	if l == (Label{}) {
		return ""
	}
	q := "q" + strconv.FormatInt(l.Query, 10) + "/"
	if l.From == "" {
		return q + l.To
	}
	return q + l.From + "->" + l.To
}

// New creates a buffer bounded to capacity batches (minimum 1).
func New(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	b := &Buffer{capacity: capacity}
	b.notFull = sync.NewCond(&b.mu)
	b.notEmpty = sync.NewCond(&b.mu)
	return b
}

// UsePool returns b.
//
// Deprecated: arrays are garbage-collected; nothing is pooled.
func (b *Buffer) UsePool(*BatchPool) *Buffer { return b }

// Recycle does nothing.
//
// Deprecated: arrays are garbage-collected; nothing is pooled.
func (b *Buffer) Recycle(Batch) {}

// queued is the number of batches in the FIFO.
func (b *Buffer) queued() int { return len(b.queue) - b.head }

// Put enqueues one batch, blocking while the buffer is full. It returns
// ErrAbandoned if the consumer is gone, or the close error if the buffer was
// force-closed underneath the producer.
func (b *Buffer) Put(batch Batch) error {
	if len(batch) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.abandoned {
			return ErrAbandoned
		}
		if b.closed {
			if b.closeErr != nil {
				return b.closeErr
			}
			return errors.New("tbuf: put on closed buffer")
		}
		if b.capacity <= 0 || b.queued() < b.capacity {
			break
		}
		b.putBlocked = true
		b.notFull.Wait()
		b.putBlocked = false
	}
	if len(b.queue) == cap(b.queue) && b.head > 0 && 2*b.head >= len(b.queue) {
		n := copy(b.queue, b.queue[b.head:])
		clear(b.queue[n:])
		b.queue, b.head = b.queue[:n], 0
	}
	b.queue = append(b.queue, batch)
	b.totalIn += int64(len(batch))
	b.notEmpty.Signal()
	return nil
}

// Get dequeues one batch, blocking while the buffer is empty and open.
// After the producer closes the buffer and the queue drains, Get returns
// (nil, io.EOF) on a clean close or (nil, err) on an errored close.
//
// An abandoned buffer reports ErrAbandoned even when it was also closed:
// Abandon drops whatever was still queued, so a consumer that keeps reading
// past its own teardown (a cancelled query's operator racing the Cancel)
// must never mistake the truncated stream for a clean EOF — an aggregate
// that did would emit a silently short result, and through an attached OSP
// satellite hand that corrupt row to an innocent query (the 1-in-20 lost
// page of TestSatelliteRescuedFromCancelledHost).
func (b *Buffer) Get() (Batch, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.queued() > 0 {
			batch := b.queue[b.head]
			b.queue[b.head] = nil
			if b.head++; b.head == len(b.queue) {
				b.queue, b.head = b.queue[:0], 0
			}
			b.totalOut += int64(len(batch))
			b.notFull.Signal()
			return batch, nil
		}
		if b.abandoned {
			return nil, ErrAbandoned
		}
		if b.closed {
			if b.closeErr != nil {
				return nil, b.closeErr
			}
			return nil, io.EOF
		}
		b.getBlocked = true
		b.notEmpty.Wait()
		b.getBlocked = false
	}
}

// Close marks the producer done. A nil err means clean end-of-stream; the
// consumer sees io.EOF after draining. A non-nil err propagates to both
// sides. Closing twice keeps the first error.
func (b *Buffer) Close(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.closeErr = err
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// Abandon marks the consumer gone: pending and future Puts fail with
// ErrAbandoned and queued batches are dropped.
func (b *Buffer) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.abandoned = true
	b.queue, b.head = nil, 0
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
}

// SetUnbounded removes the capacity bound (deadlock resolution by
// materialization): any blocked producer wakes and completes its Put.
func (b *Buffer) SetUnbounded() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = 0
	b.notFull.Broadcast()
}

// Unbounded reports whether the capacity bound has been lifted.
func (b *Buffer) Unbounded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity <= 0
}

// IsAbandoned reports whether the consumer abandoned the buffer.
func (b *Buffer) IsAbandoned() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.abandoned
}

// Snapshot captures the buffer's occupancy and blocking state.
type Snapshot struct {
	State      State
	PutBlocked bool
	GetBlocked bool
	Closed     bool
	Abandoned  bool
	Queued     int // batches
	QueuedTup  int64
	Producer   int64
	Consumer   int64
	Label      Label
}

// Snapshot returns the current state for the deadlock detector.
func (b *Buffer) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := StatePartial
	switch {
	case b.queued() == 0:
		st = StateEmpty
	case b.capacity > 0 && b.queued() >= b.capacity:
		st = StateFull
	}
	var queuedTup int64
	for _, batch := range b.queue[b.head:] {
		queuedTup += int64(len(batch))
	}
	return Snapshot{
		State:      st,
		PutBlocked: b.putBlocked,
		GetBlocked: b.getBlocked,
		Closed:     b.closed,
		Abandoned:  b.abandoned,
		Queued:     b.queued(),
		QueuedTup:  queuedTup,
		Producer:   b.Producer.Load(),
		Consumer:   b.Consumer.Load(),
		Label:      b.Label,
	}
}

// Totals returns cumulative tuples in and out.
func (b *Buffer) Totals() (in, out int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalIn, b.totalOut
}

// Drain consumes the buffer to EOF, returning the tuple count (test/client
// helper for queries whose results are discarded, as in the paper's setup).
func (b *Buffer) Drain() (int64, error) {
	var n int64
	for {
		batch, err := b.Get()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += int64(len(batch))
	}
}

// ---- SharedOut ---------------------------------------------------------------

// SharedOut is an operator's output port. It starts with one target buffer
// (the packet's own consumer) and accepts additional satellite buffers at
// run time; every produced batch is pipelined to all attached targets
// simultaneously. The primary consumer receives the producer's array itself
// and each satellite its own array holding the same immutable tuples —
// consumers share rows by reference but never the arrays, so each may
// reorder the batch it got. A bounded replay window of produced tuples
// supports late attachment (the buffering enhancement); the window retains
// rows, not arrays.
//
// Put is safe to call from multiple producing goroutines — the partitioned
// scan fans P partition workers into one consumer's port, and the parallel
// hash-join/group-by stages do the same with per-worker emitters — because
// the replay append, produced counter, and target snapshot share one
// critical section. The port makes no cross-batch ordering guarantee under
// concurrent producers, so only order-insensitive streams (unordered scans,
// hash-join and grouped-aggregate output) may multi-produce.
type SharedOut struct {
	mu   sync.Mutex
	outs []*Buffer
	// producerID is the packet identity stamped onto every attached
	// buffer for the deadlock detector; rebindable when a shared scanner
	// takes over production (see Buffer.Producer).
	producerID int64

	replay      []tuple.Tuple
	replayLimit int
	replayValid bool
	produced    int64
	closed      bool
	stop        error // why Put stopped delivering (Err); nil while it has not
}

// NewSharedOut creates a port writing to primary, retaining up to
// replayLimit produced tuples for late attachment. replayLimit zero
// disables replay (spike semantics after the first tuple); negative retains
// everything (full materialization).
func NewSharedOut(primary *Buffer, replayLimit int) *SharedOut {
	return &SharedOut{outs: []*Buffer{primary}, replayLimit: replayLimit, replayValid: true}
}

// UsePool returns s.
//
// Deprecated: arrays are garbage-collected; nothing is pooled.
func (s *SharedOut) UsePool(*BatchPool) *SharedOut { return s }

// NewBatch returns an empty batch of capacity n.
//
// Deprecated: make the batch; nothing is pooled.
func (s *SharedOut) NewBatch(n int) Batch { return make(Batch, 0, n) }

// Put pipelines one batch to every attached consumer, blocking on the
// slowest. A consumer whose buffer refuses the batch is detached; if it
// failed hard (a forced close carrying a fault) the port stops with that
// error, and if it abandoned the buffer and was the last, with
// ErrConsumersGone. A stopped port keeps why it stopped (Err): every later
// Put returns that error at once, never blocks, and delivers nothing. A
// non-nil result means only "stop": the packet's completion reads the reason
// from the port, so a producer that ignores it wastes work, nothing more.
// The caller gives the batch up either way.
func (s *SharedOut) Put(batch Batch) error {
	s.mu.Lock()
	if s.stop == nil && len(s.outs) == 0 {
		// Every consumer detached while another producer's Put was in flight.
		s.stop = ErrConsumersGone
	}
	if s.stop != nil || len(batch) == 0 {
		err := s.stop
		s.mu.Unlock()
		return err
	}
	s.produced += int64(len(batch))
	if s.replayValid {
		if s.replayLimit >= 0 && s.produced > int64(s.replayLimit) {
			s.replayValid = false
			s.replay = nil
		} else {
			// The window retains the rows themselves (immutable once Put),
			// not clones and not the batch array.
			s.replay = append(s.replay, batch...)
		}
	}
	// Fast path: one consumer (the overwhelmingly common case) avoids
	// snapshotting a targets slice per Put.
	var primary *Buffer
	var targets []*Buffer
	if len(s.outs) == 1 {
		primary = s.outs[0]
	} else {
		targets = slices.Clone(s.outs)
	}
	s.mu.Unlock()

	if primary != nil {
		if err := primary.Put(batch); err != nil {
			return s.drop(primary, err)
		}
		return nil
	}

	// Each satellite gets its own array over the same immutable rows. All
	// copies are made BEFORE the primary's Put: once it has the array, the
	// primary consumer may reorder it while later copies would still read it.
	copies := make([]Batch, len(targets))
	for i := 1; i < len(targets); i++ {
		copies[i] = slices.Clone(batch)
	}
	copies[0] = batch
	var stop error
	for i, out := range targets {
		if err := out.Put(copies[i]); err != nil {
			stop = s.drop(out, err)
		}
	}
	return stop
}

// drop detaches a consumer whose buffer refused a Put with err and, under the
// same lock, stops a port that has not stopped yet: with err when the
// consumer failed hard, with ErrConsumersGone when it abandoned the buffer
// and no consumer is left. A satellite that attached while the Put was in
// flight got the batch through the replay window, so it keeps the port going.
// drop returns why the port stopped, or nil.
func (s *SharedOut) drop(buf *Buffer, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outs = slices.DeleteFunc(s.outs, func(o *Buffer) bool { return o == buf })
	switch {
	case s.stop != nil:
	case !errors.Is(err, ErrAbandoned):
		s.stop = err
	case len(s.outs) == 0:
		s.stop = ErrConsumersGone
	}
	return s.stop
}

// Err returns why the port stopped: nil while it has not, the first hard
// error a consumer's buffer returned, or ErrConsumersGone.
func (s *SharedOut) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop
}

// Detach removes a consumer buffer from the port without closing it. The
// OSP rescue path uses this to take a satellite off a dying host's port
// before the host closes it (which would hand the satellite the host's
// terminal error); the satellite then feeds the buffer from its own port.
func (s *SharedOut) Detach(buf *Buffer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outs = slices.DeleteFunc(s.outs, func(o *Buffer) bool { return o == buf })
}

// SetProducer stamps the producing packet's identity onto every attached
// buffer (current and future) so the deadlock detector attributes blocked
// Puts to the packet actually producing — which OSP may change at run time
// (circular-scan admission hands production to the scanner's host).
func (s *SharedOut) SetProducer(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.producerID = id
	for _, o := range s.outs {
		o.Producer.Store(id)
	}
}

// Attach adds a satellite consumer. If output was already produced, the
// satellite first receives the replay window — provided it still covers
// everything produced; otherwise Attach fails (the window of opportunity
// has expired) and the caller must run the operator independently. A port
// that stopped (Err) or closed refuses too: its producer has quit, and a
// satellite would get a clean end after a prefix of the rows.
func (s *SharedOut) Attach(buf *Buffer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.stop != nil {
		return false
	}
	if s.produced > 0 {
		if !s.replayValid {
			return false
		}
		// The satellite gets its own array over the retained (immutable)
		// rows. A fresh satellite buffer is empty, so a single Put cannot
		// block.
		if err := buf.Put(slices.Clone(s.replay)); err != nil {
			return false
		}
	}
	s.outs = append(s.outs, buf)
	if s.producerID != 0 {
		buf.Producer.Store(s.producerID)
	}
	return true
}

// Close ends the stream for every attached consumer.
func (s *SharedOut) Close(err error) {
	s.mu.Lock()
	s.closed = true
	outs := make([]*Buffer, len(s.outs))
	copy(outs, s.outs)
	s.replay = nil
	s.mu.Unlock()
	for _, o := range outs {
		o.Close(err)
	}
}

// Produced returns the number of tuples produced so far.
func (s *SharedOut) Produced() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.produced
}

// NumConsumers returns the number of currently attached consumers.
func (s *SharedOut) NumConsumers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outs)
}

// PruneDead detaches consumers whose buffers were abandoned and reports
// whether any live consumer remains; when none does the port stops with
// ErrConsumersGone, as a Put would. Producers whose stream goes quiet (a
// scan consumer matching no rows never Puts, so never learns its targets
// died) use this as an explicit liveness probe.
func (s *SharedOut) PruneDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.outs[:0]
	for _, o := range s.outs {
		if !o.IsAbandoned() {
			kept = append(kept, o)
		}
	}
	s.outs = kept
	if len(kept) == 0 && s.stop == nil {
		s.stop = ErrConsumersGone
	}
	return len(kept) > 0
}
