// Functional per-query options. Options travel with the query through the
// engine (core.QueryOptions) instead of being scattered across plan-node
// methods and the global Config, so concurrent queries on one DB can run
// with different parallelism, batch size, OSP participation and deadlines.
package qpipe

import (
	"fmt"
	"time"

	"qpipe/internal/core"
)

// QueryOption tunes the execution of a single Run/RunBatch call.
type QueryOption func(*queryOpts)

type queryOpts struct {
	core core.QueryOptions

	sharedScan bool

	// validation bookkeeping (checked in resolve)
	parErr      error
	batchErr    error
	badTimeout  bool
	badDeadline bool
}

// maxParallelism and maxBatchSize bound what one query may ask for. Both
// are allocated up front — par sub-workers, channels and partial tables (a
// hash join also makes max(8, par) spill files per side), and a batch array
// of n rows — so a value past them would be an out-of-memory crash, which no
// error or panic quarantine can catch, rather than a slow query.
const (
	maxParallelism = 1024
	maxBatchSize   = 65536
)

// checkCount is the one range check the per-query options and SET share:
// n must lie in [1, limit].
func checkCount(option, what string, n, limit int) error {
	if n < 1 || n > limit {
		return &OptionError{Option: option, Reason: fmt.Sprintf("%s must be an integer in [1, %d]", what, limit)}
	}
	return nil
}

// WithParallelism sets the intra-operator fan-out for every operator of this
// query (partitioned scans, hash-join build/probe, group-by and aggregate
// workers). 1 is serial. Values outside [1, 1024] yield an *OptionError at
// Run.
func WithParallelism(n int) QueryOption {
	return func(o *queryOpts) {
		o.core.Parallelism = n
		o.parErr = checkCount("WithParallelism", "parallelism", n, maxParallelism)
	}
}

// WithoutOSP opts this query out of on-demand simultaneous pipelining in
// both directions: it neither attaches to in-progress work of other queries
// nor hosts their satellites. This is the per-query "Baseline" switch.
func WithoutOSP() QueryOption {
	return func(o *queryOpts) { o.core.DisableOSP = true }
}

// WithSharedScan declares that the query expects to piggyback on in-progress
// scans of its tables (the paper's circular-scan sharing). Sharing is always
// on when OSP is — the option exists to make the expectation explicit, and
// to reject the contradictory combination with WithoutOSP as an
// *OptionError instead of silently never sharing.
func WithSharedScan() QueryOption {
	return func(o *queryOpts) { o.sharedScan = true }
}

// WithBatchSize sets the tuples-per-batch target this query's operators aim
// for when producing output (smaller batches lower latency to first row;
// larger batches amortize synchronization), and bounds the batches
// Result.Next returns — also when the plan's root is a scan, which then cuts
// each page's rows to size. Values outside [1, 65536] yield an
// *OptionError at Run.
func WithBatchSize(n int) QueryOption {
	return func(o *queryOpts) {
		o.core.BatchSize = n
		o.batchErr = checkCount("WithBatchSize", "batch size", n, maxBatchSize)
	}
}

// WithTimeout bounds the query's execution to a relative budget measured
// from submission — the statement timeout. A query that exceeds it fails
// with a typed *DeadlineError (errors.Is-matching context.DeadlineExceeded),
// torn down exactly like a cancellation: buffers abandoned, satellites of
// the timed-out host rescued, no hang, no silent truncation. Combines with
// WithDeadline and the caller's context; the earliest instant wins. Values
// <= 0 yield an *OptionError at Run.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *queryOpts) {
		o.core.Timeout = d
		o.badTimeout = d <= 0
	}
}

// WithDeadline bounds the query's execution to an absolute instant (see
// WithTimeout for semantics). A zero time yields an *OptionError at Run.
func WithDeadline(t time.Time) QueryOption {
	return func(o *queryOpts) {
		o.core.Deadline = t
		o.badDeadline = t.IsZero()
	}
}

// resolve folds the options and validates values and combinations, returning
// a distinct *OptionError per failure mode.
func resolveOpts(opts []QueryOption) (queryOpts, error) {
	var o queryOpts
	for _, fn := range opts {
		fn(&o)
	}
	switch {
	case o.parErr != nil:
		return o, o.parErr
	case o.batchErr != nil:
		return o, o.batchErr
	case o.badTimeout:
		return o, &OptionError{Option: "WithTimeout", Reason: "timeout must be > 0"}
	case o.badDeadline:
		return o, &OptionError{Option: "WithDeadline", Reason: "deadline must be non-zero"}
	case o.sharedScan && o.core.DisableOSP:
		return o, &OptionError{Option: "WithSharedScan", Reason: "conflicts with WithoutOSP: scan sharing is an OSP mechanism"}
	}
	return o, nil
}
