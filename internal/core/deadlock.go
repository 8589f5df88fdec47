// Deadlock detection for simultaneously pipelined schedules (paper §4.3.3,
// elaborated in Shkapenyuk et al., CMU-CS-05-122 [30]).
//
// When one producer pipelines to N consumers, every consumer advances at the
// pace of the slowest. Two queries that share *two* producers in opposite
// consumption order can therefore deadlock: query A needs more tuples from
// shared scan S1 before it will drain S2, while query B needs more from S2
// before it will drain S1; both scans block on full buffers. Bounded buffers
// only delay the cycle.
//
// Following [30], the detector models the pipeline as a Waits-For graph
// derived purely from buffer states (full/empty/non-empty) without assuming
// anything about producer/consumer rates:
//
//	producer P --waits-for--> consumer C   when P blocks putting into a full
//	                                       buffer consumed by C
//	consumer C --waits-for--> producer P   when C blocks getting from an
//	                                       empty, still-open buffer fed by P
//
// Nodes are packets, plus the threads that read results outside the engine:
// a query's result buffer has its reader's node as consumer
// (QueryOptions.Reader) — one per server connection, node 0 for every
// embedded Result, bare or under a Session. The node names the reading
// thread, not the result: a thread that holds one result unread while it
// waits on another closes a real cycle, which only one node for both results
// can show. A server connection's goroutine is the only one that reads its
// results, so its node is exact; embedded goroutines cannot be told apart,
// so a cycle through node 0 may be false, and breaking it costs only the
// materialization.
//
// A cycle is a real deadlock. Resolution materializes (lifts the bound of)
// the cheapest full buffer on the cycle — "only materializing the tuples in
// the event of a real deadlock", choosing the node that minimizes cost; we
// use the currently-buffered tuple count as the cost proxy for the optimal
// set computation.
package core

import (
	"sync"
	"time"

	"qpipe/internal/core/tbuf"
)

// NewReader returns a fresh Waits-For node for a thread that reads results
// outside the engine (QueryOptions.Reader). It is drawn from the packets'
// ids, so it names no packet.
func NewReader() int64 { return packetSeq.Add(1) }

type detector struct {
	rt       *Runtime
	interval time.Duration
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newDetector(rt *Runtime, interval time.Duration) *detector {
	return &detector{rt: rt, interval: interval, stopCh: make(chan struct{})}
}

func (d *detector) start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.interval)
		defer t.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-t.C:
				d.ScanOnce()
			}
		}
	}()
}

func (d *detector) stop() {
	close(d.stopCh)
	d.wg.Wait()
}

// edge is one Waits-For edge, remembering the buffer that induced it so
// resolution can materialize it.
type edge struct {
	to  int64
	buf *tbuf.Buffer
	// putEdge marks producer→consumer edges (only these are resolvable by
	// materialization: lifting the bound unblocks the Put).
	putEdge bool
}

// ScanOnce snapshots all live buffers, builds the Waits-For graph and
// resolves every cycle found. It returns the number of buffers
// materialized (exported for tests and for a paranoid caller that wants a
// synchronous check).
func (d *detector) ScanOnce() int {
	graph := make(map[int64][]edge)
	for _, q := range d.rt.liveQueries() {
		for _, b := range q.Buffers() {
			s := b.Snapshot()
			if s.Abandoned || s.Closed {
				continue
			}
			if s.PutBlocked && s.State == tbuf.StateFull {
				graph[s.Producer] = append(graph[s.Producer], edge{to: s.Consumer, buf: b, putEdge: true})
			}
			if s.GetBlocked && s.State == tbuf.StateEmpty {
				graph[s.Consumer] = append(graph[s.Consumer], edge{to: s.Producer, buf: b})
			}
		}
	}
	resolved := 0
	for {
		cycle := findCycle(graph)
		if cycle == nil {
			break
		}
		d.rt.deadlocks.Add(1)
		// Materialize the cheapest full buffer on the cycle.
		var victim *tbuf.Buffer
		var victimCost int64
		for _, e := range cycle {
			if !e.putEdge {
				continue
			}
			cost := e.buf.Snapshot().QueuedTup
			if victim == nil || cost < victimCost {
				victim, victimCost = e.buf, cost
			}
		}
		if victim == nil {
			// Cycle of pure get-edges cannot happen without a put edge
			// somewhere; bail out defensively.
			break
		}
		victim.SetUnbounded()
		d.rt.materialized.Add(1)
		resolved++
		// Remove the resolved edge and look for further cycles.
		graph = removeEdges(graph, victim)
	}
	return resolved
}

func removeEdges(graph map[int64][]edge, buf *tbuf.Buffer) map[int64][]edge {
	out := make(map[int64][]edge, len(graph))
	for from, es := range graph {
		for _, e := range es {
			if e.buf != buf {
				out[from] = append(out[from], e)
			}
		}
	}
	return out
}

// findCycle returns the edges of one cycle in the graph, or nil. The DFS
// keeps the current path (path[i] --stack[i]--> path[i+1]) so a back edge to
// a gray node yields exactly the cycle's edges.
func findCycle(graph map[int64][]edge) []edge {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int64]int)
	var path []int64
	var stack []edge
	var dfs func(n int64) []edge
	dfs = func(n int64) []edge {
		color[n] = gray
		path = append(path, n)
		for _, e := range graph[n] {
			switch color[e.to] {
			case white:
				stack = append(stack, e)
				if c := dfs(e.to); c != nil {
					return c
				}
				stack = stack[:len(stack)-1]
			case gray:
				for j, node := range path {
					if node == e.to {
						cycle := append([]edge(nil), stack[j:]...)
						return append(cycle, e)
					}
				}
			}
		}
		color[n] = black
		path = path[:len(path)-1]
		return nil
	}
	for n := range graph {
		if color[n] == white {
			path, stack = path[:0], stack[:0]
			if c := dfs(n); c != nil {
				return c
			}
		}
	}
	return nil
}
