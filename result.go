// Result: the handle to a submitted query's output stream — batch-level
// access (Next), bulk access (All, Discard) and a Go-1.23 range-over-func
// iterator (Rows).
//
// At the API boundary the ROWS handed out are immutable and remain valid
// forever (the engine shares rows by reference); the batch ARRAY carrying
// them is the caller's own, plain garbage-collected memory.
package qpipe

import (
	"io"
	"iter"

	"qpipe/internal/core"
	"qpipe/internal/tuple"
)

// Result is a handle to a submitted query's output.
type Result struct {
	q      *core.Query
	schema *Schema // output schema (column names and kinds)

	// Materialized mode (EXPLAIN): rows are served from memory, q is nil.
	mat     []Row
	matDone bool

	// limit < 0 = unlimited. Tracked across Next calls; once delivered
	// rows reach the limit the query is cancelled and the result reports
	// clean EOF.
	limit     int64
	delivered int64
	limitHit  bool

	err     error
	errSeen bool
}

// newStreamResult wraps an admitted query.
func newStreamResult(q *core.Query, schema *Schema, limit int64) *Result {
	return &Result{q: q, schema: schema, limit: limit}
}

// newRowsResult wraps materialized rows (EXPLAIN's plan text).
func newRowsResult(rows []Row, schema *Schema) *Result {
	return &Result{mat: rows, schema: schema, limit: -1}
}

// Schema returns the result's output schema: the column names and kinds the
// rows follow, in order. Clients rendering results (the qpipe-shell REPL,
// report generators) use it for headers.
func (r *Result) Schema() *Schema { return r.schema }

// Next returns the next batch of result rows; io.EOF signals completion.
// The returned batch ARRAY is owned by the caller (the engine never touches
// it again; the caller may reorder or keep it), but the ROWS inside are
// read-only: they may be shared by reference with a port's replay window
// and with concurrent OSP satellite queries, so mutating a returned row
// corrupts other queries' results. Callers that need to modify a row must
// Clone it first.
func (r *Result) Next() ([]Row, error) {
	if r.q == nil { // materialized mode
		if r.matDone || len(r.mat) == 0 {
			return nil, io.EOF
		}
		b := r.mat
		r.mat, r.matDone = nil, true
		return b, nil
	}
	if r.limitHit {
		return nil, io.EOF
	}
	if r.limit == 0 {
		r.limitHit = true
		r.q.Cancel()
		return nil, io.EOF
	}
	b, err := r.q.Result.Get()
	if err != nil {
		if err != io.EOF {
			// A cancelled (or timed-out) query tears its buffers down under
			// the reader, so Get surfaces teardown shrapnel ("buffer
			// abandoned"). Normalize to the query's terminal cancellation
			// error — the typed *DeadlineError / context.Canceled the caller
			// can branch on.
			if cerr := r.q.CancelErr(); cerr != nil {
				err = cerr
			}
		}
		return nil, err
	}
	if r.limit > 0 && r.delivered+int64(len(b)) >= r.limit {
		b = b[:r.limit-r.delivered]
		r.delivered = r.limit
		r.limitHit = true
		// The limit is satisfied: stop the upstream work.
		r.q.Cancel()
		return b, nil
	}
	r.delivered += int64(len(b))
	return b, nil
}

// ready reports whether Next would return without waiting: a batch is
// queued, or the stream has ended one way or another.
func (r *Result) ready() bool {
	if r.q == nil || r.limitHit || r.limit == 0 {
		return true
	}
	s := r.q.Result.Snapshot()
	return s.Queued > 0 || s.Closed || s.Abandoned
}

// Recycle does nothing: a batch from Next is the caller's, and the garbage
// collector frees its array.
//
// Deprecated: there is nothing to hand back.
func (r *Result) Recycle([]Row) {}

// finish resolves the result's terminal error after EOF: nil for
// materialized results and satisfied limits, the query's own terminal error
// otherwise.
func (r *Result) finish() error {
	if r.q == nil || r.limitHit {
		return nil
	}
	return r.q.Wait()
}

// setErr records the terminal error for Err (first one sticks).
func (r *Result) setErr(err error) error {
	if !r.errSeen {
		r.err, r.errSeen = err, true
	}
	return err
}

// Rows returns a single-use iterator over the result's rows, for use with
// range. Rows yielded may be retained freely but are READ-ONLY (see Next).
// Breaking out of the range early cancels the remaining query work. Iteration errors are
// reported by Err after the loop:
//
//	for row := range res.Rows() {
//		...
//	}
//	if err := res.Err(); err != nil { ... }
func (r *Result) Rows() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		for {
			b, err := r.Next()
			if err == io.EOF {
				r.setErr(r.finish())
				return
			}
			if err != nil {
				r.setErr(err)
				return
			}
			for _, row := range b {
				if !yield(row) {
					r.Cancel()
					r.setErr(nil)
					return
				}
			}
		}
	}
}

// Err returns the terminal error observed by a completed Rows/All/Discard
// pass (nil until the result was consumed, and nil after a clean or
// limit-stopped completion).
func (r *Result) Err() error {
	if !r.errSeen {
		return nil
	}
	return r.err
}

// All drains the result completely and waits for the query to finish. The
// returned rows are the caller's to keep but read-only (see Next).
func (r *Result) All() ([]Row, error) {
	var out []Row
	for {
		b, err := r.Next()
		if err == io.EOF {
			return out, r.setErr(r.finish())
		}
		if err != nil {
			return out, r.setErr(err)
		}
		out = append(out, b...)
	}
}

// Discard drains and drops the results (the paper's experiments discard
// all result tuples), returning the row count.
func (r *Result) Discard() (int64, error) {
	var n int64
	for {
		b, err := r.Next()
		if err == io.EOF {
			return n, r.setErr(r.finish())
		}
		if err != nil {
			return n, r.setErr(err)
		}
		n += int64(len(b))
	}
}

// Cancel aborts the query (no-op for materialized results).
func (r *Result) Cancel() {
	if r.q != nil {
		r.q.Cancel()
	}
}

// Stats returns the query's sharing counters (valid after completion; zero
// for materialized results).
func (r *Result) Stats() *core.QueryStats {
	if r.q == nil {
		return &core.QueryStats{}
	}
	return &r.q.Stats
}

// compile-time check that Row and the engine's tuple stay one type.
var _ []Row = []tuple.Tuple(nil)
