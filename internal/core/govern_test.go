package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// waitInt64 polls an int64 gauge until it reaches want (governance gauges
// move a goroutine-schedule after the triggering call returns).
func waitInt64(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d (timed out)", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := newAdmission(1, 2)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two waiters park in order.
	order := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			if err := a.Acquire(context.Background()); err == nil {
				order <- i
			}
		}()
		waitInt64(t, a.Queued, int64(i), "Queued")
	}
	// A third arrival finds the queue full and is shed with the typed error.
	var oe *OverloadedError
	err := a.Acquire(context.Background())
	if !errors.As(err, &oe) {
		t.Fatalf("full queue: got %v, want *OverloadedError", err)
	}
	if oe.MaxConcurrent != 1 || oe.QueueDepth != 2 {
		t.Fatalf("OverloadedError fields: %+v", oe)
	}
	if a.Shed() != 1 {
		t.Fatalf("Shed = %d", a.Shed())
	}
	// Releases hand the slot to the waiters strictly in FIFO order.
	a.Release()
	if got := <-order; got != 1 {
		t.Fatalf("first released waiter = %d, want 1", got)
	}
	a.Release()
	if got := <-order; got != 2 {
		t.Fatalf("second released waiter = %d, want 2", got)
	}
	a.Release()
	// Fully drained: a fresh Acquire succeeds immediately.
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release()
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- a.Acquire(ctx) }()
	waitInt64(t, a.Queued, 1, "Queued")
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	waitInt64(t, a.Queued, 0, "Queued")
	// The cancelled waiter must not have leaked or consumed a slot: one
	// release frees the only slot and a fresh Acquire gets it.
	a.Release()
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release()
}

func TestAdmissionDisabled(t *testing.T) {
	a := newAdmission(0, 0)
	for i := 0; i < 100; i++ {
		if err := a.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if a.Shed() != 0 || a.Queued() != 0 {
		t.Fatalf("ungoverned admission counted: shed=%d queued=%d", a.Shed(), a.Queued())
	}
}

func TestPanicQuarantineRescuesSatellites(t *testing.T) {
	// The host packet's operator panics after absorbing a satellite. The
	// panic must be quarantined: the host's query fails with a typed
	// *PanicError, the satellite is detached and rescued (its subtree
	// re-dispatched, yielding the full result), the panic is counted in
	// engine stats, and the µEngine keeps serving subsequent packets.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var boom atomic.Bool
	op := &fakeOp{
		op: "x",
		run: func(rt *Runtime, pkt *Packet) error {
			if boom.CompareAndSwap(true, false) { // only the first (host) packet panics
				started <- struct{}{}
				<-release
				panic("operator bug")
			}
			return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}})
		},
	}
	rt := newTestRuntime(t, op)
	node := &fakeNode{op: "x", sig: "same"}
	boom.Store(true)
	q1, err := rt.Submit(context.Background(), node)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q2, err := rt.Submit(context.Background(), node) // absorbed onto q1's packet
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats.SatelliteAttaches() != 1 {
		t.Fatal("satellite did not attach to the doomed host")
	}
	close(release) // host panics now

	// The rescued satellite re-runs its subtree cleanly and gets the result.
	n2, err2 := q2.Result.Drain()
	if err2 != nil || n2 != 1 {
		t.Fatalf("rescued satellite: %d rows, err %v", n2, err2)
	}
	if err := q2.Wait(); err != nil {
		t.Fatalf("rescued satellite query failed: %v", err)
	}
	// The host query fails with the typed quarantine error.
	var pe *PanicError
	if err := q1.Wait(); !errors.As(err, &pe) {
		t.Fatalf("host error = %v, want *PanicError", err)
	}
	if pe.Op != "x" {
		t.Fatalf("PanicError.Op = %s", pe.Op)
	}
	st := rt.Stats()
	if st.Panics != 1 || st.EngineStats["x"].Panics != 1 {
		t.Fatalf("panic counters: runtime=%d engine=%d", st.Panics, st.EngineStats["x"].Panics)
	}
	// The µEngine keeps serving.
	q3, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "later"})
	if err != nil {
		t.Fatal(err)
	}
	if n3, err3 := q3.Result.Drain(); err3 != nil || n3 != 1 {
		t.Fatalf("post-panic packet: %d rows, err %v", n3, err3)
	}
	if err := q3.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRejectedWhileDraining(t *testing.T) {
	// A slow packet keeps the runtime busy; Close's drain must reject new
	// submissions with ErrClosed while letting the in-flight one finish.
	release := make(chan struct{})
	op := &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
		<-release
		return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}})
	}}
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{OSP: true, DeadlockInterval: -1, DrainTimeout: 10 * time.Second}, []Operator{op})
	q1, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	// Close is now draining (or about to be): new submissions must fail with
	// ErrClosed without deadlocking.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "b"}); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never saw ErrClosed during drain")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a query was still in flight")
	default:
	}
	close(release)
	if n, err := q1.Result.Drain(); err != nil || n != 1 {
		t.Fatalf("in-flight query during drain: %d rows, err %v", n, err)
	}
	if err := q1.Wait(); err != nil {
		t.Fatalf("drained query failed: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the last query drained")
	}
}

// fakeParent is a fakeNode with children.
type fakeParent struct {
	fakeNode
	kids []plan.Node
}

func (n *fakeParent) Children() []plan.Node { return n.kids }

// TestCloseWakesAConduitOfAFinishedQuery: a packet held in a cycle that no
// detector breaks (it is off), whose own query has left the live set while
// the packet still serves another query's satellite, wakes once Close's drain
// time is up, and Close returns. The cycle is the shared scanner's: j reads a
// second buffer its input's port feeds as well, so the port waits on j's full
// input while j waits on the empty second buffer.
func TestCloseWakesAConduitOfAFinishedQuery(t *testing.T) {
	src := &fakeOp{op: "src", run: func(_ *Runtime, pkt *Packet) error {
		for {
			if err := pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}}); err != nil {
				return err
			}
		}
	}}
	var second *tbuf.Buffer
	attached := make(chan struct{})
	j := &fakeOp{op: "j", run: func(rt *Runtime, pkt *Packet) error {
		second = rt.newInput(pkt, pkt.Children[0].Node)
		if !pkt.Children[0].Out.Attach(second) {
			return errors.New("the input's port refused the second buffer")
		}
		close(attached)
		_, err := second.Drain()
		return err
	}}
	release := make(chan struct{})
	root := &fakeOp{op: "r", run: func(*Runtime, *Packet) error { <-release; return nil }}
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{OSP: true, BufferCapacity: 2, DeadlockInterval: -1, DrainTimeout: time.Millisecond}, []Operator{src, j, root})
	join := &fakeParent{fakeNode{op: "j", sig: "j"}, []plan.Node{&fakeNode{op: "src", sig: "src"}}}
	q1, err := rt.Submit(context.Background(), &fakeParent{fakeNode{op: "r", sig: "r"}, []plan.Node{join}})
	if err != nil {
		t.Fatal(err)
	}
	// The same join over a source of its own signature: only the join attaches.
	q2, err := rt.Submit(context.Background(), &fakeParent{join.fakeNode, []plan.Node{&fakeNode{op: "src", sig: "src2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats.SatelliteAttaches() != 1 {
		t.Fatal("q2's join did not attach to q1's")
	}
	<-attached
	in := q1.Root.Children[0].Inputs[0]
	waitInt64(t, func() int64 {
		if in.Snapshot().PutBlocked && second.Snapshot().GetBlocked {
			return 1
		}
		return 0
	}, 1, "the cycle held")
	close(release)
	waitInt64(t, func() int64 { return rt.Stats().InFlight }, 1, "queries in flight once q1's root ended")
	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatalf("Close did not return:\n%s", rt.DumpState())
	}
	if err := q2.Wait(); err == nil {
		t.Fatal("q2 ended cleanly in a closed runtime")
	}
}

// TestRescueAfterTheAbsorbCommitted: a host that fails as soon as a satellite
// is on it rescues the satellite while the dispatch that absorbed it may
// still be returning, with nothing else ordering the two. The absorb's whole
// commit — its children discarded, its share noted — must come before the
// rescue replaces those children and notes its second decision: the race
// detector sees it otherwise.
func TestRescueAfterTheAbsorbCommitted(t *testing.T) {
	src := &fakeOp{op: "src", run: func(_ *Runtime, pkt *Packet) error {
		return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}})
	}}
	j := &fakeOp{op: "j", run: func(_ *Runtime, pkt *Packet) error {
		if pkt.Node.Children()[0].Signature() == "held" { // the host
			for !pkt.HasLiveSatellites() {
				time.Sleep(100 * time.Microsecond)
			}
			return errors.New("the host fails")
		}
		for _, in := range pkt.Inputs {
			if _, err := in.Drain(); err != nil {
				return err
			}
		}
		return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(2)}})
	}}
	rt := newTestRuntime(t, src, j)
	for i := range 20 {
		join := &fakeParent{fakeNode{op: "j", sig: fmt.Sprint("j", i)}, []plan.Node{&fakeNode{op: "src", sig: fmt.Sprint("src", i)}}}
		q1, err := rt.Submit(context.Background(), &fakeParent{join.fakeNode, []plan.Node{&fakeNode{op: "src", sig: "held"}}})
		if err != nil {
			t.Fatal(err)
		}
		q2, err := rt.Submit(context.Background(), join)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := q2.Result.Drain(); err != nil || n != 1 {
			t.Fatalf("the rescued join: %d rows, %v", n, err)
		}
		if err := q2.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := q1.Wait(); err == nil {
			t.Fatal("the host ended cleanly")
		}
	}
}
