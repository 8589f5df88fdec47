package core

import (
	"context"
	"errors"
	"testing"
)

// internalPacket is a packet of operator x outside any dispatch, for calling
// Fan directly.
func internalPacket(rt *Runtime) *Packet {
	node := &fakeNode{op: "x", sig: "a"}
	pkt, _ := rt.NewInternalPacket(newPacket(newQuery(context.Background(), QueryOptions{}), node), node)
	return pkt
}

// A worker's error cancels its siblings' ctx with that error as the cause,
// and Fan returns it once every worker has returned.
func TestPanicQuarantineFanCancelsSiblings(t *testing.T) {
	rt := newTestRuntime(t, &fakeOp{op: "x"})
	want := errors.New("worker 1 failed")
	causes := make([]error, 3)
	err := rt.Fan(internalPacket(rt), 3, func(ctx context.Context, k int) error {
		if k == 1 {
			return want
		}
		<-ctx.Done()
		causes[k] = context.Cause(ctx)
		return nil
	})
	if err != want {
		t.Fatalf("Fan returned %v, want %v", err, want)
	}
	for _, k := range []int{0, 2} {
		if causes[k] != want {
			t.Fatalf("worker %d saw cause %v, want %v", k, causes[k], want)
		}
	}
}

// A panic in worker 0 (the packet's own goroutine) and one in worker 1 (a
// sub-worker) each end the query with *PanicError, counted once.
func TestPanicQuarantineFanWorkerPanics(t *testing.T) {
	for _, bad := range []int{0, 1} {
		rt := newTestRuntime(t, &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
			return rt.Fan(pkt, 2, func(ctx context.Context, k int) error {
				if k == bad {
					panic("worker bug")
				}
				<-ctx.Done()
				return nil
			})
		}})
		q, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
		if err != nil {
			t.Fatal(err)
		}
		var pe *PanicError
		if err := q.Wait(); !errors.As(err, &pe) || pe.Op != "x" {
			t.Fatalf("worker %d panicked: query ended with %v, want *PanicError of x", bad, err)
		}
		if st := rt.Stats(); st.Panics != 1 || st.EngineStats["x"].Panics != 1 {
			t.Fatalf("worker %d panicked: panic counters runtime=%d engine=%d, want 1", bad, st.Panics, st.EngineStats["x"].Panics)
		}
	}
}

// Fan over p workers runs p-1 sub-workers; worker 0 is the caller.
func TestPanicQuarantineFanCountsSubWorkers(t *testing.T) {
	rt := newTestRuntime(t, &fakeOp{op: "x"})
	if err := rt.Fan(internalPacket(rt), 4, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := rt.Stats().EngineStats["x"].SubWorkers; n != 3 {
		t.Fatalf("SubWorkers = %d, want 3", n)
	}
}

// TestGrowStackStaysOnTheStack: growStack's padding must stay a stack
// frame. Moved to the heap it would grow nothing and cost an allocation
// per packet.
func TestGrowStackStaysOnTheStack(t *testing.T) {
	if n := testing.AllocsPerRun(100, growStack); n != 0 {
		t.Fatalf("growStack: %v allocations, want 0", n)
	}
}
