// Resource governance: query admission control and the typed errors the
// governance layer surfaces (overload shedding, query deadlines, operator
// panic quarantine).
//
// QPipe's sharing thesis only pays off under heavy concurrent traffic, and
// heavy traffic is exactly where an ungoverned engine collapses: every
// submitted query dispatches packets, takes buffers and queues disk
// requests, so offered load past the device's capacity converts directly
// into latency for everyone. The admission controller caps how many queries
// execute at once (Config.MaxConcurrentQueries), parks a bounded FIFO queue
// of waiters behind them (Config.AdmissionQueue), and sheds load with a
// typed *OverloadedError once the queue is full — queued-but-bounded
// behavior as an engine property.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qpipe/internal/plan"
)

// OverloadedError is returned by Submit when the engine is at its
// concurrent-query limit and the admission queue is full: the query was
// shed without dispatching any work. Callers can back off and retry;
// errors.As-match it to distinguish shedding from execution failures.
type OverloadedError struct {
	// MaxConcurrent is the configured concurrent-query limit.
	MaxConcurrent int
	// QueueDepth is the configured admission-queue bound that was full.
	QueueDepth int
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("qpipe: overloaded: %d queries running and %d queued — query shed",
		e.MaxConcurrent, e.QueueDepth)
}

// DeadlineError is the terminal error of a query whose deadline expired —
// set per query via the Deadline/Timeout options (the facade's WithDeadline
// and WithTimeout, SQL SET statement_timeout) or inherited from the
// caller's context. It unwraps to context.DeadlineExceeded so existing
// errors.Is checks keep working, and it is delivered through the same
// cancellation path as a caller cancel: buffers abandoned, packets flagged,
// satellites of a timed-out host rescued — never a hang, never silent
// truncation.
type DeadlineError struct {
	// Timeout is the configured budget when the deadline came from a
	// relative timeout (zero when set as an absolute deadline or inherited
	// from the caller's context).
	Timeout time.Duration
	// Deadline is the absolute instant the query was allowed to run until.
	Deadline time.Time
}

// Error implements error.
func (e *DeadlineError) Error() string {
	if e.Timeout > 0 {
		return fmt.Sprintf("qpipe: query deadline exceeded (statement timeout %s)", e.Timeout)
	}
	return "qpipe: query deadline exceeded"
}

// Unwrap makes errors.Is(err, context.DeadlineExceeded) hold.
func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// PanicError is the terminal error of a query whose operator panicked, on the
// packet's worker or on a sub-worker Runtime.Fan ran for it. The µEngine
// quarantines the panic: the packet fails with this error, its satellites are
// detached and rescued exactly like the cancel path, the panic is counted in
// the engine's stats, and the µEngine keeps serving subsequent packets.
type PanicError struct {
	// Op is the µEngine whose operator panicked.
	Op plan.OpType
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("qpipe: µEngine %s: operator panicked (quarantined): %v", e.Op, e.Value)
}

// ErrClosed is returned by Submit once the runtime has begun shutting down:
// new queries are rejected while in-flight ones drain.
var ErrClosed = fmt.Errorf("qpipe: engine closed")

// admission is the FIFO admission controller. A zero max disables
// governance entirely (Acquire/Release are no-ops).
type admission struct {
	max      int // concurrent-query slots; <= 0 = ungoverned
	queueCap int // bounded wait queue

	mu      sync.Mutex
	running int
	waiters []chan struct{} // FIFO; closed to hand the head waiter a slot

	shed   atomic.Int64
	queued atomic.Int64 // gauge: currently parked waiters
}

func newAdmission(max, queueCap int) *admission {
	return &admission{max: max, queueCap: queueCap}
}

// Acquire blocks until a query slot is available, the context is done, or
// the bounded wait queue is full (typed *OverloadedError, counted as shed).
// Waiters are served strictly FIFO: a released slot transfers to the head
// of the queue, never to a fresh arrival racing past it.
func (a *admission) Acquire(ctx context.Context) error {
	if a.max <= 0 {
		return nil
	}
	a.mu.Lock()
	if a.running < a.max && len(a.waiters) == 0 {
		a.running++
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.queueCap {
		a.mu.Unlock()
		a.shed.Add(1)
		return &OverloadedError{MaxConcurrent: a.max, QueueDepth: a.queueCap}
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.queued.Add(1)
	a.mu.Unlock()
	select {
	case <-ch:
		a.queued.Add(-1)
		return nil
	case <-ctx.Done():
		a.queued.Add(-1)
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.mu.Unlock()
				return ctx.Err()
			}
		}
		a.mu.Unlock()
		// The slot was granted while the cancellation raced in; hand it
		// back so it is not leaked.
		a.Release()
		return ctx.Err()
	}
}

// Release frees a slot, transferring it to the head waiter if any.
func (a *admission) Release() {
	if a.max <= 0 {
		return
	}
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.mu.Unlock()
		close(ch)
		return
	}
	a.running--
	a.mu.Unlock()
}

// Shed returns the number of queries rejected with *OverloadedError.
func (a *admission) Shed() int64 { return a.shed.Load() }

// Queued returns the number of queries currently parked in the wait queue.
func (a *admission) Queued() int64 { return a.queued.Load() }
