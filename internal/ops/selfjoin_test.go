package ops

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
)

// selfJoin is t ⋈ t on the key: a hash join whose build input keeps every
// row and whose probe input the rows below 2000, both of one column.
func selfJoin() plan.Node {
	l := plan.NewTableScan("t", testSchema(), nil, []int{0}, false)
	r := plan.NewTableScan("t", testSchema(), expr.LT(expr.Col(0), expr.CInt(2000)), []int{0}, false)
	return plan.NewHashJoin(l, r, 0, 0)
}

// heldSelfJoin sends a self-join whose two scans both ride the scanner of a
// held bare scan of t, A (its result unread, pre rows of it taken): the join
// reads its build input to the end while the scanner waits on the join's full
// probe input, the §4.3.3 cycle, once A is drained. Rescued, the self-join is
// first absorbed as the satellite of an identical self-join of a query
// cancelled before its first batch, and then runs as itself.
func heldSelfJoin(t *testing.T, rt *core.Runtime, rescued bool) (q, a *core.Query, pre int64) {
	t.Helper()
	a, pre = startBlockedScan(t, rt)
	submit := func(ctx context.Context) *core.Query {
		q, err := rt.Submit(ctx, selfJoin())
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	scansRode := func(want int64) {
		t.Helper()
		eventually(t, fmt.Sprintf("%d scans rode A's scanner", want), func() bool {
			return rt.Stats().EngineStats[plan.OpTableScan].Shares[core.ShareRode] == want
		})
	}
	if !rescued {
		q = submit(context.Background())
		scansRode(2)
		return q, a, pre
	}
	ctx, cancel := context.WithCancel(context.Background())
	doomed := submit(ctx)
	scansRode(2)
	q = submit(context.Background())
	if got := q.Stats.Shares[core.ShareAttached].Load(); got != 1 {
		t.Fatalf("%d packets of the second self-join attached, want its join", got)
	}
	cancel()
	<-doomed.Root.Done() // its join rescued the satellite before it finished
	scansRode(4)
	if got := q.Stats.Shares[core.ShareHostCancelled].Load(); got != 1 {
		t.Fatalf("the rescued join's decisions: %v, want one host-cancelled", &q.Stats.Shares)
	}
	return q, a, pre
}

// joinOf returns q's hash-join packet.
func joinOf(q *core.Query) *core.Packet {
	for _, p := range q.Packets() {
		if p.Node.Op() == plan.OpHashJoin {
			return p
		}
	}
	return nil
}

// readersArePackets fails unless every buffer of q but its result names a
// packet of q as its Waits-For consumer.
func readersArePackets(t *testing.T, q *core.Query) {
	t.Helper()
	pkts := make(map[int64]bool)
	for _, p := range q.Packets() {
		pkts[p.ID] = true
	}
	for _, b := range q.Buffers() {
		if s := b.Snapshot(); b != q.Result && !pkts[s.Consumer] {
			t.Errorf("buffer %s is read by %d, no packet of its query", s.Label, s.Consumer)
		}
	}
}

// TestHeldSelfJoinBreaksTheScannerCycle: the held self-join, plain and
// rescued, gives the iterator engine's answer, and its cycle was broken by
// the detector materializing the join's probe input — which the build, that
// needs every page, cannot end without. Nothing here waits on a clock.
func TestHeldSelfJoinBreaksTheScannerCycle(t *testing.T) {
	const n = 3000
	want, err := volcano.New(newRT(t, n, core.DefaultConfig()).SM).Run(context.Background(), selfJoin())
	if err != nil {
		t.Fatal(err)
	}
	for _, rescued := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("rescued=%v/P=%d", rescued, par), func(t *testing.T) {
				rt := newRT(t, n, parCfg(par))
				q, a, pre := heldSelfJoin(t, rt, rescued)
				drained := make(chan int64, 1)
				go func() {
					n, _ := a.Result.Drain()
					drained <- pre + n
				}()
				got, err := sdDrain(q)
				if err != nil {
					t.Fatal(err)
				}
				sdCompare(t, "the self-join", selfJoin(), got, sdSorted(want))
				if rows := <-drained; rows != n {
					t.Fatalf("A read %d rows, want %d", rows, n)
				}
				if !joinOf(q).Inputs[1].Unbounded() {
					t.Fatal("the join's probe input was not materialized")
				}
				if st := rt.Stats(); st.DeadlocksSeen == 0 || st.Materialized == 0 {
					t.Fatalf("%d deadlocks seen, %d buffers materialized", st.DeadlocksSeen, st.Materialized)
				}
				readersArePackets(t, q)
				for op, es := range rt.Stats().EngineStats {
					var decided int64
					for _, n := range es.Shares {
						decided += n
					}
					if decided != es.Enqueued {
						t.Errorf("%s: %d decisions for %d packets enqueued", op, decided, es.Enqueued)
					}
				}
			})
		}
	}
}

// TestCloseEndsAHeldCycle: with the detector off the held self-join's cycle
// stands, and Close, once its drain time is up, still wakes every packet
// blocked in it and returns.
func TestCloseEndsAHeldCycle(t *testing.T) {
	for _, rescued := range []bool{false, true} {
		cfg := parCfg(2)
		cfg.DeadlockInterval, cfg.DrainTimeout = -1, 50*time.Millisecond
		rt := newRT(t, 3000, cfg)
		q, a, _ := heldSelfJoin(t, rt, rescued)
		drained := make(chan error, 1)
		go func() {
			_, err := a.Result.Drain()
			drained <- err
		}()
		eventually(t, "the scanner waits on the join's full probe input", func() bool {
			return joinOf(q).Inputs[1].Snapshot().PutBlocked
		})
		rt.Close()
		if err := q.Wait(); err == nil {
			t.Fatalf("rescued=%v: the self-join ended cleanly in a closed runtime", rescued)
		}
		if err := <-drained; err == nil {
			t.Fatalf("rescued=%v: A ended cleanly in a closed runtime", rescued)
		}
	}
}
