package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// TestPacketSigIsTheNodeSignature: the dispatcher renders each packet's
// signature once, around its children's, and gets what the node renders on
// its own — for a Top-N copied from a Sort, and for the packets a merge
// join's split makes at run time: the suffix consumer, the prefix (a copy
// of the scan with a leaf range) and the other side dispatched again.
func TestPacketSigIsTheNodeSignature(t *testing.T) {
	var split []*Packet
	drain := func(op plan.OpType) *fakeOp {
		return &fakeOp{op: op, run: func(_ *Runtime, pkt *Packet) error {
			for _, in := range pkt.Inputs {
				if _, err := in.Drain(); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	mjoin := &fakeOp{op: plan.OpMergeJoin, run: func(rt *Runtime, pkt *Packet) error {
		mj := pkt.Node.(*plan.MergeJoin)
		shared := mj.Left.(*plan.IndexScan)
		suffix, _ := rt.NewInternalPacket(pkt, shared)
		suffix.Discard()
		prefix := *shared
		prefix.LeafFrom, prefix.LeafTo = 0, 3
		split = append(split, suffix)
		for _, n := range []plan.Node{&prefix, mj.Right} {
			buf, p := rt.DispatchSubtree(pkt, n)
			split = append(split, p)
			if _, err := buf.Drain(); err != nil {
				return err
			}
		}
		return drain(plan.OpMergeJoin).run(rt, pkt)
	}}
	rt := newTestRuntime(t, drain(plan.OpIndexScan), drain(plan.OpTableScan), drain(plan.OpFilter), drain(plan.OpSort), mjoin)

	s := tuple.NewSchema(tuple.Col("a", tuple.KindInt), tuple.Col("b", tuple.KindFloat))
	left := plan.NewIndexScan("t", s, "a", tuple.Value{}, tuple.Value{}, true, true, expr.GT(expr.Col(1), expr.CFloat(0.5)), nil)
	right := plan.NewFilter(plan.NewTableScan("u", s, nil, []int{1, 0}, false), expr.NE(expr.Col(0), expr.CDate(3)))
	sorted := plan.NewSort(plan.NewMergeJoin(left, right, 0, 1, false), []int{1}, true)
	root, ok := plan.WithTopN(sorted, 5)
	if !ok || root.Signature() == sorted.Signature() {
		t.Fatalf("WithTopN: %v, %s", ok, root.Signature())
	}

	q, err := rt.Submit(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Result.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(split) != 3 {
		t.Fatalf("the merge join ran %d split packets, want 3", len(split))
	}
	pkts := q.Packets()
	if len(pkts) != 9 {
		t.Fatalf("%d packets, want 5 dispatched, 1 internal and 3 for the split", len(pkts))
	}
	for _, p := range pkts {
		if want := p.Node.Signature(); p.Sig != want {
			t.Errorf("%s: Sig %s, want %s", p, p.Sig, want)
		}
	}
	if !strings.Contains(q.Root.Sig, "top=5;") {
		t.Errorf("the root is not the Top-N: %s", q.Root.Sig)
	}
	if sig := split[1].Sig; !strings.HasSuffix(sig, ";0:3)") {
		t.Errorf("the prefix packet's signature lacks its leaf range: %s", sig)
	}
}

// TestDumpStateRendersLabels: a buffer's label is rendered when DumpState
// asks for it, from the query and the operators on its ends.
func TestDumpStateRendersLabels(t *testing.T) {
	held := make(chan struct{})
	release := make(chan struct{})
	op := &fakeOp{op: plan.OpFilter, run: func(*Runtime, *Packet) error {
		close(held)
		<-release
		return nil
	}}
	rt := newTestRuntime(t, op, &fakeOp{op: plan.OpTableScan, run: func(*Runtime, *Packet) error { return nil }})
	s := tuple.NewSchema(tuple.Col("a", tuple.KindInt))
	q, err := rt.Submit(context.Background(), plan.NewFilter(plan.NewTableScan("t", s, nil, nil, false), expr.True{}))
	if err != nil {
		t.Fatal(err)
	}
	<-held
	dump := rt.DumpState()
	close(release)
	for _, label := range []string{"/result", "/tscan->filter"} {
		if label = "q" + strconv.FormatInt(q.ID, 10) + label; !strings.Contains(dump, " "+label+" ") {
			t.Errorf("DumpState lacks the label %s:\n%s", label, dump)
		}
	}
	if _, err := q.Result.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
}
