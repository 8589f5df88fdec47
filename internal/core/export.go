// Exported hooks used by operator implementations (the ops package): packet
// completion outside the engine loop, per-query knobs, temp files and
// sharing statistics.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/plan"
)

// Complete finishes a packet that an operator served outside the normal
// engine worker loop — scan-group consumers and internal packets complete
// this way — with the terminal error settle makes of err. Idempotent.
func (p *Packet) Complete(err error) { p.finish(p.settle(err)) }

// settle is the one rule for a packet's terminal error: the operator's own,
// else why its output port stopped (tbuf.SharedOut.Err). A stop because every
// consumer left is a clean end, nil; but any error of a packet whose query
// was cancelled, that stop included, is the query's CancelErr — the
// teardown's shrapnel is not the cause. (CancelErr, not ctx.Err(): a packet
// outliving its finished query keeps its own outcome.)
func (p *Packet) settle(err error) error {
	if err == nil {
		err = p.Out.Err()
	}
	if err == nil {
		return nil
	}
	if cerr := p.Query.CancelErr(); cerr != nil {
		return cerr
	}
	if errors.Is(err, tbuf.ErrConsumersGone) {
		return nil
	}
	return err
}

// NoteShare is the sharing ledger's one writer: it counts how pkt's decision
// ended, in its query's Shares and its µEngine's row (if any), and a share
// fed by host's work in host's HostedSatellites. A decision noted in Run
// (a scan's ride, a sorted file, a split) replaces the miss noted at enqueue,
// so a µEngine's row sums to its Enqueued. A packet that rode leaves the
// in-flight set, nobody's host, like a satellite.
func (rt *Runtime) NoteShare(pkt *Packet, why ShareDecision, host *Query) {
	q, e := pkt.Query, rt.engines[pkt.Node.Op()]
	if pkt.noted {
		q.Stats.Shares[pkt.share].Add(-1)
		if e != nil {
			e.shares[pkt.share].Add(-1)
		}
	}
	pkt.share, pkt.noted = why, true
	q.Stats.Shares[why].Add(1)
	if e != nil {
		e.shares[why].Add(1)
		if why == ShareRode {
			e.removeInflight(pkt)
		}
	}
	if host != nil {
		host.Stats.HostedSatellites.Add(1)
	}
	pkt.decide()
}

// BatchSizeFor resolves the effective batch size for one query: the query's
// WithBatchSize option when set, the runtime default otherwise.
func (rt *Runtime) BatchSizeFor(q *Query) int {
	if q != nil && q.Opts.BatchSize > 0 {
		return q.Opts.BatchSize
	}
	return rt.Cfg.BatchSize
}

// ParallelismFor resolves the fan-out of every parallel operator of q: the
// query's Parallelism option, else the runtime's ScanParallelism; anything
// below 1 is serial. Fan-out belongs to the query, never to a plan node, so
// no signature can see it and queries that differ only in it still share.
func (rt *Runtime) ParallelismFor(q *Query) int {
	p := rt.Cfg.ScanParallelism
	if q != nil && q.Opts.Parallelism > 0 {
		p = q.Opts.Parallelism
	}
	return max(p, 1)
}

// TempFile draws a temp-file name for pkt and records it on the packet before
// the file exists: the µEngine drops every recorded file once Run returns,
// however it returns, so an operator writes no cleanup of its own. TempFile
// and KeepTemp are called by the goroutine running pkt's Run, which is the
// one that drops.
func (rt *Runtime) TempFile(pkt *Packet, prefix string) string {
	name := rt.SM.TempName(prefix)
	pkt.temps = append(pkt.temps, name)
	return name
}

// KeepTemp takes name off pkt's temp files: it outlives Run, and whoever it
// was handed to drops it.
func (p *Packet) KeepTemp(name string) {
	p.temps = slices.DeleteFunc(p.temps, func(n string) bool { return n == name })
}

// dropTemps drops the temp files still recorded on pkt.
func (rt *Runtime) dropTemps(pkt *Packet) {
	for _, name := range pkt.temps {
		rt.SM.DropTemp(name)
	}
	pkt.temps = nil
}

// OSPAllowed reports whether a query participates in on-demand simultaneous
// pipelining: the runtime must have OSP on and the query must not have opted
// out (WithoutOSP). Operator-specific sharing structures (scan groups, sort
// states) must not be registered for queries where this is false.
func (rt *Runtime) OSPAllowed(q *Query) bool {
	return rt.Cfg.OSP && !(q != nil && q.Opts.DisableOSP)
}

// Discard cancels a packet that was never (and will never be) executed — a
// satellite's child, or a gated child the OSP coordinator replaced with a
// rewritten evaluation strategy — and everything beneath it.
func (p *Packet) Discard() {
	p.CancelSubtree()
	p.markDone(nil, PacketCancelled)
}

// DumpState renders every live query's packets and buffer snapshots — the
// operator's view of a stuck pipeline (blocked producers/consumers, buffer
// occupancy, satellite relationships). Used by tests on timeouts and
// available to embedders for debugging.
func (rt *Runtime) DumpState() string {
	var b strings.Builder
	for _, q := range rt.liveQueries() {
		fmt.Fprintf(&b, "query %d:\n", q.ID)
		for _, p := range q.Packets() {
			host := ""
			if h := p.Host(); h != nil {
				host = fmt.Sprintf(" host=pkt%d", h.ID)
			}
			fmt.Fprintf(&b, "  %s%s\n", p, host)
		}
		for _, buf := range q.Buffers() {
			s := buf.Snapshot()
			flags := ""
			if s.PutBlocked {
				flags += " PUT-BLOCKED"
			}
			if s.GetBlocked {
				flags += " GET-BLOCKED"
			}
			if s.Closed {
				flags += " closed"
			}
			if s.Abandoned {
				flags += " abandoned"
			}
			fmt.Fprintf(&b, "  buf %-24s %s prod=%d cons=%d q=%d%s\n",
				s.Label, s.State, s.Producer, s.Consumer, s.Queued, flags)
		}
	}
	return b.String()
}

// NewInternalPacket creates a packet of reader's query owned by an operator's
// run-time rewiring rather than dispatched to a µEngine — e.g. the suffix
// consumer the merge-join split attaches to an in-progress ordered scan. The
// packet has a fresh output buffer, which reader reads; whoever feeds it must
// call Complete.
func (rt *Runtime) NewInternalPacket(reader *Packet, node plan.Node) (*Packet, *tbuf.Buffer) {
	q, buf := reader.Query, rt.newInput(reader, node)
	pkt := newPacket(q, node)
	pkt.Sig = node.Signature()
	pkt.OutBuf = buf
	pkt.Out = tbuf.NewSharedOut(buf, rt.Cfg.ReplayWindow)
	pkt.Out.SetProducer(pkt.ID)
	q.addPacket(pkt)
	return pkt, buf
}
