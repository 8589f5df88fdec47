// Intra-operator parallelism plumbing shared by the hash-join, group-by and
// aggregate µEngines. The paper makes per-operator parallelism a first-class
// design axis (each µEngine owns "a pool of worker threads"); PR 1 exploited
// it for scans, and these helpers extend the same sub-worker machinery
// (core.Runtime.Fan) up the pipeline:
//
//   - parFeed: one router (the packet's worker) drains the input buffer and
//     deals raw batches to P sub-workers over a shared channel — for stages
//     where any worker can process any tuple (probing a read-only table,
//     partial aggregation).
//   - routeAffine: the router hashes each tuple and deals it to the one
//     sub-worker owning its partition — for stages with single-writer state
//     per partition (spill writers, the hybrid join's memory-resident
//     partition 0).
//
// Both run the router and the workers as one Fan: the first failure — a
// worker's error or panic, or the router's own, such as the input buffer a
// cancelled query tore down — cancels the worker ctx, on which the router
// stops dealing and closes the channels, so the remaining workers drain them
// and return.
package ops

import (
	"context"
	"io"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/tuple"
)

// parFeed deals in's batches — first, when not nil, then the rest until EOF —
// to p sub-workers consuming one shared channel, and returns the first error.
func parFeed(rt *core.Runtime, pkt *core.Packet, in *tbuf.Buffer, first tbuf.Batch, p int, work func(k int, ch <-chan tbuf.Batch) error) error {
	ch := make(chan tbuf.Batch, p) // a batch queued per worker
	return rt.Fan(pkt, p+1, func(ctx context.Context, k int) error {
		if k > 0 {
			return work(k-1, ch)
		}
		defer close(ch)
		for b := first; ; b = nil {
			if b == nil {
				var err error
				if b, err = in.Get(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
			select {
			case ch <- b:
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}
	})
}

// routed is one tuple annotated with its join/partition hash, dealt from the
// router to the sub-worker owning its partition.
type routed struct {
	t tuple.Tuple
	h uint64
}

// routeBatch is how many routed tuples the router accumulates per worker
// before handing the slice over (amortizes channel synchronization, like the
// engine's tuple batches do for buffers).
const routeBatch = 256

// routeAffine fans hashed tuples out to par sub-workers with partition
// affinity: the router (calling worker) computes each tuple's hash through
// feed's emit callback and deals it to worker home(h), so every piece of
// partition-local state — a spill writer, the hybrid hash join's
// memory-resident partition — has exactly one writing worker. The worker ctx
// is polled once per routed batch, never per tuple. Returns the first
// router/worker error.
func routeAffine(rt *core.Runtime, pkt *core.Packet, par int, home func(h uint64) int, work func(k int, ch <-chan []routed) error, feed func(emit func(tuple.Tuple, uint64) error) error) error {
	chans := make([]chan []routed, par)
	for k := range chans {
		chans[k] = make(chan []routed, 2)
	}
	return rt.Fan(pkt, par+1, func(ctx context.Context, k int) error {
		if k > 0 {
			return work(k-1, chans[k-1])
		}
		defer func() {
			for _, ch := range chans {
				close(ch)
			}
		}()
		send := func(k int, items []routed) error {
			select {
			case chans[k] <- items:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}
		pending := make([][]routed, par)
		err := feed(func(t tuple.Tuple, h uint64) error {
			k := home(h)
			if pending[k] == nil {
				pending[k] = make([]routed, 0, routeBatch)
			}
			pending[k] = append(pending[k], routed{t: t, h: h})
			if len(pending[k]) < routeBatch {
				return nil
			}
			items := pending[k]
			pending[k] = nil
			return send(k, items)
		})
		for k := 0; err == nil && k < par; k++ {
			if len(pending[k]) > 0 {
				err = send(k, pending[k])
			}
		}
		return err
	})
}
