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

// fakeOp is a configurable operator for runtime tests. Its packets share by
// the µEngine's signature-exact attach like every operator's, so packets of
// different queries that must not share carry distinct signatures.
type fakeOp struct {
	op  plan.OpType
	run func(rt *Runtime, pkt *Packet) error
}

func (f *fakeOp) Op() plan.OpType { return f.op }

func (f *fakeOp) Run(rt *Runtime, pkt *Packet) error { return f.run(rt, pkt) }

// fakeNode is a minimal leaf plan node with a controllable signature.
type fakeNode struct {
	op  plan.OpType
	sig string
}

func (n *fakeNode) Op() plan.OpType       { return n.op }
func (n *fakeNode) Children() []plan.Node { return nil }
func (n *fakeNode) Schema() *tuple.Schema { return tuple.NewSchema(tuple.Col("v", tuple.KindInt)) }
func (n *fakeNode) Signature() string     { return n.sig }

func newTestRuntime(t *testing.T, ops ...Operator) *Runtime {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{OSP: true, DeadlockInterval: 5 * time.Millisecond}, ops)
	t.Cleanup(rt.Close)
	return rt
}

func TestSubmitUnknownOperator(t *testing.T) {
	rt := newTestRuntime(t, &fakeOp{op: "x", run: func(*Runtime, *Packet) error { return nil }})
	_, err := rt.Submit(context.Background(), &fakeNode{op: "zzz", sig: "s"})
	if err == nil {
		t.Fatal("submit with unknown operator should fail")
	}
}

func TestRunPacketProducesAndCloses(t *testing.T) {
	op := &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
		return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(7)}})
	}}
	rt := newTestRuntime(t, op)
	q, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Result.Drain()
	if err != nil || n != 1 {
		t.Fatalf("drain: %d %v", n, err)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if q.Root.State() != PacketDone {
		t.Fatalf("state: %v", q.Root.State())
	}
}

func TestRunPacketErrorPropagates(t *testing.T) {
	want := errors.New("op failed")
	op := &fakeOp{op: "x", run: func(*Runtime, *Packet) error { return want }}
	rt := newTestRuntime(t, op)
	q, _ := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	if _, err := q.Result.Drain(); !errors.Is(err, want) {
		t.Fatalf("drain err: %v", err)
	}
	if err := q.Wait(); !errors.Is(err, want) {
		t.Fatalf("wait err: %v", err)
	}
}

func TestRunPacketPanicRecovered(t *testing.T) {
	op := &fakeOp{op: "x", run: func(*Runtime, *Packet) error { panic("boom") }}
	rt := newTestRuntime(t, op)
	q, _ := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	if _, err := q.Result.Drain(); err == nil {
		t.Fatal("panic should surface as error")
	}
	if err := q.Wait(); err == nil {
		t.Fatal("wait should report panic error")
	}
}

func TestSignatureShareAbsorbsSatellite(t *testing.T) {
	started := make(chan *Packet, 1)
	release := make(chan struct{})
	op := &fakeOp{
		op: "x",
		run: func(rt *Runtime, pkt *Packet) error {
			started <- pkt
			<-release
			return pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}})
		},
	}
	rt := newTestRuntime(t, op)
	node := &fakeNode{op: "x", sig: "same"}
	q1, _ := rt.Submit(context.Background(), node)
	<-started
	q2, _ := rt.Submit(context.Background(), node)
	close(release)
	n1, err1 := q1.Result.Drain()
	n2, err2 := q2.Result.Drain()
	if err1 != nil || err2 != nil || n1 != 1 || n2 != 1 {
		t.Fatalf("results: %d %v / %d %v", n1, err1, n2, err2)
	}
	if err := q2.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := q2.Stats.SatelliteAttaches(); got != 1 {
		t.Fatalf("satellite attaches: %d", got)
	}
	if got := q1.Stats.HostedSatellites.Load(); got != 1 {
		t.Fatalf("hosted satellites: %d", got)
	}
	st := rt.Stats()
	if st.SharesByOp["x"] != 1 {
		t.Fatalf("shares: %v", st.SharesByOp)
	}
	if rt.TotalShares() != 1 {
		t.Fatal("TotalShares")
	}
}

// heldOp is a fake operator of type op whose every run announces itself on
// started, then waits for release.
func heldOp(op plan.OpType, started chan<- struct{}, release <-chan struct{}) *fakeOp {
	return &fakeOp{op: op, run: func(rt *Runtime, pkt *Packet) error {
		started <- struct{}{}
		<-release
		return nil
	}}
}

// assertRunsTwice sends an identical packet twice, the second while the first
// runs, and checks that the second was not absorbed — no share at any
// operator, and the miss counted n times by its reason why — but ran on its
// own.
func assertRunsTwice(t *testing.T, rt *Runtime, op plan.OpType, why ShareDecision, n int64, started <-chan struct{}, send func()) {
	t.Helper()
	send()
	<-started
	send()
	if st := rt.Stats(); len(st.SharesByOp) != 0 || st.Shares[why] != n || st.EngineStats[op].Shares[why] != n {
		t.Fatalf("shares: %v, decisions: %v, want %d %s", st.SharesByOp, st.Shares, n, why)
	}
	<-started
}

// submitter sends node to rt as a query of its own.
func submitter(t *testing.T, rt *Runtime, node plan.Node) func() {
	return func() {
		if _, err := rt.Submit(context.Background(), node); err != nil {
			t.Error(err)
		}
	}
}

func TestNoShareAcrossSameQuery(t *testing.T) {
	// Two identical nodes inside ONE query must not satellite each other.
	started, release := make(chan struct{}, 2), make(chan struct{})
	defer close(release)
	rt := newTestRuntime(t, heldOp("x", started, release))
	q := newQuery(context.Background(), QueryOptions{})
	assertRunsTwice(t, rt, "x", ShareSameQuery, 1, started, func() {
		buf := tbuf.New(2)
		q.addBuffer(buf)
		rt.dispatch(q, &fakeNode{op: "x", sig: "same"}, buf, false)
	})
}

// TestDecidingScanHostsNothing: a scan packet that has yet to decide in its
// Run whether it rides a scan group is no host, and its Submit returns once it
// has. An identical scan sent meanwhile is queued and decides in its own Run
// (where two scans settle on one group), never becoming the satellite of a
// packet that may be about to ride.
func TestDecidingScanHostsNothing(t *testing.T) {
	started, release := make(chan struct{}, 2), make(chan struct{})
	rt := newTestRuntime(t, &fakeOp{op: plan.OpTableScan, run: func(rt *Runtime, pkt *Packet) error {
		started <- struct{}{}
		<-release
		rt.NoteShare(pkt, ShareNoHost, nil)
		return nil
	}})
	scan := plan.NewTableScan("t", tuple.NewSchema(tuple.Col("a", tuple.KindInt)), nil, nil, false)
	submitted := make(chan *Query, 2)
	send := func() {
		go func() {
			q, err := rt.Submit(context.Background(), scan)
			if err != nil {
				t.Error(err)
			}
			submitted <- q
		}()
	}
	send()
	<-started
	send()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the second scan did not run: it was absorbed by the first, which had not decided")
	}
	select {
	case <-submitted:
		t.Fatal("Submit returned before its scan packet decided")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	for range 2 {
		q := <-submitted
		if q == nil {
			t.FailNow()
		}
		if _, err := q.Result.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Stats(); len(st.SharesByOp) != 0 || st.EngineStats[plan.OpTableScan].Shares[ShareNoHost] != 2 {
		t.Fatalf("shares: %v, decisions: %v, want 2 no-host", st.SharesByOp, st.EngineStats[plan.OpTableScan].Shares)
	}
}

func TestOSPDisabledNeverShares(t *testing.T) {
	started, release := make(chan struct{}, 2), make(chan struct{})
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{OSP: false}, []Operator{heldOp("x", started, release)})
	defer rt.Close()
	defer close(release)
	assertRunsTwice(t, rt, "x", ShareOSPOff, 2, started, submitter(t, rt, &fakeNode{op: "x", sig: "same"}))
}

func TestUpdatePacketsNeverShare(t *testing.T) {
	// Updates are never shared (§4.3.4), whatever their signatures.
	started, release := make(chan struct{}, 2), make(chan struct{})
	defer close(release)
	rt := newTestRuntime(t, heldOp(plan.OpUpdate, started, release))
	assertRunsTwice(t, rt, plan.OpUpdate, ShareUpdate, 2, started, submitter(t, rt, &fakeNode{op: plan.OpUpdate, sig: "same"}))
}

func TestQueryCancelAbandonsBuffers(t *testing.T) {
	blocked := make(chan struct{})
	op := &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
		close(blocked)
		for {
			// Produce until the consumer disappears.
			if err := pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(1)}}); err != nil {
				return nil
			}
		}
	}}
	rt := newTestRuntime(t, op)
	q, _ := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	<-blocked
	q.Cancel()
	done := make(chan struct{})
	go func() {
		q.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query never finished")
	}
}

// TestPortStopSettlesThePacket: an operator that drops every Put result and
// writes until its loop ends still ends its packet right — the port keeps why
// it stopped, and the packet's completion reads it. Each consumer's fate is
// decided while the operator is held after its first Put.
func TestPortStopSettlesThePacket(t *testing.T) {
	fault := errors.New("consumer fault")
	for _, tc := range []struct {
		name  string
		leave func(q *Query)
		want  error
	}{
		{"consumer failed hard", func(q *Query) { q.Result.Close(fault) }, fault},
		{"query cancelled", (*Query).Cancel, context.Canceled},
		{"consumer abandoned", func(q *Query) { q.Result.Abandon() }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrote, left := make(chan struct{}), make(chan struct{})
			rt := newTestRuntime(t, &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
				for i := range 50 {
					_ = pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(int64(i))}})
					if i == 0 {
						close(wrote)
						<-left
					}
				}
				return nil
			}})
			q, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
			if err != nil {
				t.Fatal(err)
			}
			<-wrote
			tc.leave(q)
			close(left)
			if err := q.Wait(); !errors.Is(err, tc.want) {
				t.Fatalf("query error = %v, want %v", err, tc.want)
			}
			if err := q.Root.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("packet error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestStoppedPortRefusesASatellite: a host whose only consumer left stops
// producing. Held between that stopped Put and its return, it is sent a packet
// of its signature, which must not attach — it would get a clean end after a
// prefix of the rows — but be refused as window-closed and run on its own.
func TestStoppedPortRefusesASatellite(t *testing.T) {
	const rows = 4
	var runs atomic.Int32
	wrote, left, stopped, release := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	rt := newTestRuntime(t, &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
		host := runs.Add(1) == 1
		for i := range rows {
			if err := pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(int64(i))}}); err != nil {
				if host {
					close(stopped)
					<-release
				}
				return err
			}
			if host && i == 0 {
				close(wrote)
				<-left
			}
		}
		return nil
	}})
	node := &fakeNode{op: "x", sig: "same"}
	q1, err := rt.Submit(context.Background(), node)
	if err != nil {
		t.Fatal(err)
	}
	<-wrote
	q1.Result.Abandon()
	close(left)
	<-stopped
	q2, err := rt.Submit(context.Background(), node)
	close(release) // the decision was made in Submit
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Stats.Shares[ShareWindowClosed].Load(); got != 1 || q2.Stats.SatelliteAttaches() != 0 {
		t.Fatalf("decisions: window-closed %d, shares %d; want 1, 0", got, q2.Stats.SatelliteAttaches())
	}
	if n, err := q2.Result.Drain(); err != nil || n != rows {
		t.Fatalf("the refused packet's answer: %d rows, %v; want %d", n, err, rows)
	}
	if err := q2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := q1.Wait(); err != nil {
		t.Fatalf("a host whose consumer left cleanly: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	op := &fakeOp{op: "x", run: func(*Runtime, *Packet) error { return nil }}
	rt := newTestRuntime(t, op)
	for i := 0; i < 3; i++ {
		q, _ := rt.Submit(context.Background(), &fakeNode{op: "x", sig: fmt.Sprintf("s%d", i)})
		q.Result.Drain()
		q.Wait()
	}
	st := rt.Stats()
	if st.Queries != 3 {
		t.Fatalf("queries: %d", st.Queries)
	}
	if es := st.EngineStats["x"]; es.Enqueued != 3 || es.Completed != 3 {
		t.Fatalf("engine stats: %+v", es)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{}, []Operator{
		&fakeOp{op: "x", run: func(*Runtime, *Packet) error { return nil }},
	})
	rt.Close()
	if _, err := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"}); err == nil {
		t.Fatal("submit after close should fail")
	}
	rt.Close() // idempotent
}

func TestDuplicateOperatorPanics(t *testing.T) {
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate operator registration should panic")
		}
	}()
	mk := func() Operator { return &fakeOp{op: "x", run: func(*Runtime, *Packet) error { return nil }} }
	NewRuntime(mgr, Config{}, []Operator{mk(), mk()})
}

func TestPacketStateStrings(t *testing.T) {
	for s := PacketQueued; s <= PacketSatellite; s++ {
		if s.String() == "" {
			t.Fatalf("state %d has no name", s)
		}
	}
}

// TestHandOverRefusals walks the one hand-over rule (Packet.handOver) on
// packets outside any dispatch, one prior state at a time: the state decides
// the reason, in the rule's order — satellite, ever-hosted, sealed, late —
// and the hand-over bumps that reason's count for its query, and the
// runtime's count of what it installed only when it installs. A pass is
// counted where the join took the fold, so only its refusal is.
func TestHandOverRefusals(t *testing.T) {
	rt := newTestRuntime(t, &fakeOp{op: "x"})
	q := newQuery(context.Background(), QueryOptions{})
	node := &fakeNode{op: "x", sig: "a"}
	reader := newPacket(q, node)
	fresh := func() *Packet {
		p, _ := rt.NewInternalPacket(reader, node)
		return p
	}
	absorb := func(host, sat *Packet) {
		if d := host.absorbSatellite(rt, sat); d != ShareAttached {
			t.Fatalf("absorb: %s", d)
		}
	}
	installs := func() [3]int64 {
		st := rt.Stats()
		return [3]int64{st.Folds, st.Bounds, st.KeyFilters}
	}
	type hand struct {
		name  string
		do    func(p *Packet, what any) HandOver
		count int // its installs index; -1: not counted when installed
	}
	fold := hand{"SetFold", func(p *Packet, what any) HandOver { return p.SetFold(rt, what) }, 0}
	bound := hand{"SetBound", func(p *Packet, what any) HandOver { return p.SetBound(rt, what) }, 1}
	keys := hand{"Narrow", func(p *Packet, what any) HandOver { return p.Narrow(rt, what.(*KeyFilter)) }, 2}
	pass := hand{"PassFold", func(p *Packet, what any) HandOver { return p.PassFold(rt, what) }, -1}
	for _, c := range []struct {
		before string
		state  func(p *Packet)
		hand   hand
		want   HandOver
	}{
		{"nothing", func(*Packet) {}, fold, HandOverInstalled},
		{"nothing", func(*Packet) {}, bound, HandOverInstalled},
		{"nothing", func(*Packet) {}, keys, HandOverInstalled},
		{"nothing", func(*Packet) {}, pass, HandOverInstalled},
		{"absorbed by a host", func(p *Packet) { absorb(fresh(), p) }, fold, HandOverSatellite},
		{"absorbed by a host", func(p *Packet) { absorb(fresh(), p) }, pass, HandOverSatellite},
		{"absorbed a satellite", func(p *Packet) { absorb(p, fresh()) }, bound, HandOverEverHosted},
		{"absorbed a satellite, finished and looked", func(p *Packet) {
			absorb(p, fresh())
			p.finish(nil)
			p.TakeHanded()
		}, keys, HandOverEverHosted},
		{"a fold installed", func(p *Packet) { p.SetFold(rt, new(int)) }, keys, HandOverSealed},
		{"a bound installed and looked", func(p *Packet) {
			p.SetBound(rt, new(int))
			p.TakeHanded()
		}, fold, HandOverSealed},
		{"finished", func(p *Packet) { p.finish(nil) }, fold, HandOverSealed},
		{"looked", func(p *Packet) { p.TakeHanded() }, fold, HandOverLate},
		{"looked", func(p *Packet) { p.TakeHanded() }, pass, HandOverLate},
		{"looked and refused late", func(p *Packet) {
			p.TakeHanded()
			p.SetFold(rt, new(int))
		}, bound, HandOverLate},
	} {
		how := fmt.Sprintf("%s after %s", c.hand.name, c.before)
		p, what := fresh(), any(&KeyFilter{})
		c.state(p)
		was, reasons, counts := p.Handed(), q.Stats.HandOvers[c.want].Load(), installs()
		if got := c.hand.do(p, what); got != c.want {
			t.Fatalf("%s: %s, want %s", how, got, c.want)
		}
		wantReasons, wantCounts, wantHanded := reasons+1, counts, was
		if c.want == HandOverInstalled {
			wantHanded = what
			if c.hand.count < 0 {
				wantReasons = reasons
			} else {
				wantCounts[c.hand.count]++
			}
			// What is installed seals the packet: a later one of its
			// signature runs on its own.
			if d := p.absorbSatellite(rt, fresh()); d != ShareHostSealed {
				t.Errorf("%s: a later packet's attach ended %s, want %s", how, d, ShareHostSealed)
			}
		}
		if got := q.Stats.HandOvers[c.want].Load(); got != wantReasons {
			t.Errorf("%s: counted %s %d times, want %d", how, c.want, got, wantReasons)
		}
		if got := installs(); got != wantCounts {
			t.Errorf("%s: folds, bounds and key filters installed %v, want %v", how, got, wantCounts)
		}
		if got := p.Handed(); got != wantHanded {
			t.Errorf("%s: handed %v, want %v", how, got, wantHanded)
		}
	}
}

// ---- Deadlock detector ---------------------------------------------------------

// TestDeadlockDetectorBreaksCycle constructs the paper's §3.3 scenario
// artificially: two "queries" each consume two shared producers in opposite
// orders, with tiny buffers, guaranteeing a pipeline deadlock. The detector
// must materialize a buffer and let everything finish.
func TestDeadlockDetectorBreaksCycle(t *testing.T) {
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 8})
	rt := NewRuntime(mgr, Config{OSP: true, BufferCapacity: 1, DeadlockInterval: 5 * time.Millisecond}, nil)
	defer rt.Close()

	q := newQuery(context.Background(), QueryOptions{})
	// Producer A feeds bufA1 (consumer 100) and bufA2 (consumer 200);
	// producer B feeds bufB1 (consumer 100) and bufB2 (consumer 200).
	// Consumer 100 drains A then B; consumer 200 drains B then A. With
	// 1-batch buffers both producers block and both consumers starve.
	mkBuf := func(prod, cons int64, from, to string) *tbuf.Buffer {
		b := tbuf.New(1)
		b.Producer.Store(prod)
		b.Consumer.Store(cons)
		b.Label = tbuf.Label{Query: q.ID, From: from, To: to}
		q.addBuffer(b)
		return b
	}
	bufA1 := mkBuf(1, 100, "A", "c1")
	bufA2 := mkBuf(1, 200, "A", "c2")
	bufB1 := mkBuf(2, 100, "B", "c1")
	bufB2 := mkBuf(2, 200, "B", "c2")
	rt.mu.Lock()
	rt.queries[q.ID] = q
	rt.mu.Unlock()

	const rows = 50
	produce := func(b1, b2 *tbuf.Buffer) {
		for i := 0; i < rows; i++ {
			batch := tbuf.Batch{tuple.Tuple{tuple.I64(int64(i))}}
			if err := b1.Put(batch); err != nil {
				break
			}
			if err := b2.Put(append(tbuf.Batch{}, batch...)); err != nil {
				break
			}
		}
		b1.Close(nil)
		b2.Close(nil)
	}
	consume := func(first, second *tbuf.Buffer) error {
		if _, err := first.Drain(); err != nil {
			return err
		}
		_, err := second.Drain()
		return err
	}
	errs := make(chan error, 4)
	go func() { produce(bufA1, bufA2); errs <- nil }()
	go func() { produce(bufB1, bufB2); errs <- nil }()
	go func() { errs <- consume(bufA1, bufB1) }()
	go func() { errs <- consume(bufB2, bufA2) }()

	timeout := time.After(5 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("pipeline deadlock was not resolved")
		}
	}
	if rt.Stats().Materialized == 0 {
		t.Fatal("detector should have materialized at least one buffer")
	}
	if rt.Stats().DeadlocksSeen == 0 {
		t.Fatal("detector should have counted a deadlock")
	}
}

func TestDetectorNoFalsePositives(t *testing.T) {
	// A plain linear pipeline under load must not trigger materialization.
	op := &fakeOp{op: "x", run: func(rt *Runtime, pkt *Packet) error {
		for i := 0; i < 200; i++ {
			if err := pkt.Out.Put(tbuf.Batch{tuple.Tuple{tuple.I64(int64(i))}}); err != nil {
				return nil
			}
			time.Sleep(time.Millisecond / 4)
		}
		return nil
	}}
	rt := newTestRuntime(t, op)
	q, _ := rt.Submit(context.Background(), &fakeNode{op: "x", sig: "a"})
	// Slow consumer.
	for {
		_, err := q.Result.Get()
		if err != nil {
			break
		}
		time.Sleep(time.Millisecond / 2)
	}
	if rt.Stats().Materialized != 0 {
		t.Fatalf("false-positive materialization: %d", rt.Stats().Materialized)
	}
}

func TestFindCycleDirect(t *testing.T) {
	b := tbuf.New(1)
	g := map[int64][]edge{
		1: {{to: 2, buf: b, putEdge: true}},
		2: {{to: 3, buf: b}},
		3: {{to: 1, buf: b}},
	}
	if findCycle(g) == nil {
		t.Fatal("3-cycle not found")
	}
	g2 := map[int64][]edge{
		1: {{to: 2, buf: b}},
		2: {{to: 3, buf: b}},
	}
	if findCycle(g2) != nil {
		t.Fatal("acyclic graph reported a cycle")
	}
	// Self-loop.
	g3 := map[int64][]edge{1: {{to: 1, buf: b, putEdge: true}}}
	if findCycle(g3) == nil {
		t.Fatal("self-loop not found")
	}
}
