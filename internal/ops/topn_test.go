package ops

import (
	"context"
	"fmt"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
)

// topN is a Sort over the test table that keeps n rows. The table's columns
// are k (unique), g = k % 7 (ties) and v = k as a float.
func topN(keys []int, desc bool, n int64, filter expr.Pred) *plan.Sort {
	s := plan.NewSort(plan.NewTableScan("t", testSchema(), filter, nil, false), keys, desc)
	s.Limit = n
	return s
}

func keyString(r tuple.Tuple, keys []int) string {
	return fmt.Sprint(r.Project(keys))
}

// A Top-N is the iterator engine's full sort, truncated: the same rows in
// the same order on a total order, and on ties the same key columns.
func TestTopNMatchesSortThenTruncate(t *testing.T) {
	const rows = 2000
	oracle := func(rt *core.Runtime, p plan.Node) []tuple.Tuple {
		t.Helper()
		out, err := volcano.New(rt.SM).Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, par := range []int{1, 4} {
		rt := newRT(t, rows, parCfg(par))
		for _, tc := range []struct {
			name   string
			keys   []int
			desc   bool
			n      int64
			filter expr.Pred
			total  bool // the keys order the rows totally
		}{
			{"unique key", []int{0}, false, 10, nil, true},
			{"unique key, descending", []int{0}, true, 25, nil, true},
			{"multi-key, descending", []int{1, 0}, true, 40, expr.GT(expr.Col(2), expr.CFloat(100)), true},
			{"ties on the key", []int{1}, false, 500, nil, false},
			{"ties on the key, descending", []int{1}, true, 3, nil, false},
			{"n above the input", []int{2}, false, 5000, expr.LT(expr.Col(0), expr.CInt(300)), true},
			{"n is the input", []int{0}, true, 300, expr.LT(expr.Col(0), expr.CInt(300)), true},
			{"empty input", []int{0}, false, 10, expr.LT(expr.Col(0), expr.CInt(-1)), true},
			{"n = 1", []int{2, 1}, true, 1, nil, true},
		} {
			p := topN(tc.keys, tc.desc, tc.n, tc.filter)
			got, want := runPlan(t, rt, p), oracle(rt, p)
			if len(got) != len(want) {
				t.Fatalf("%s (parallelism %d): %d rows, sort-then-truncate has %d", tc.name, par, len(got), len(want))
			}
			for i := range got {
				g, w := fmt.Sprint(got[i]), fmt.Sprint(want[i])
				if !tc.total {
					g, w = keyString(got[i], tc.keys), keyString(want[i], tc.keys)
				}
				if g != w {
					t.Fatalf("%s (parallelism %d): row %d is %s, sort-then-truncate has %s", tc.name, par, i, g, w)
				}
			}
		}
	}
}

// On one input order the heap keeps exactly what a stable sort followed by
// a truncation keeps: among equal keys, the earliest arrivals, in arrival
// order. (A serial ordered scan fixes the input order.)
func TestTopNIsStableOnASerialInput(t *testing.T) {
	rt := newRT(t, 700, parCfg(1))
	for _, n := range []int64{1, 7, 50, 699, 700} {
		s := plan.NewSort(plan.NewTableScan("t", testSchema(), nil, nil, true), []int{1}, n%2 == 0)
		s.Limit = n
		got := runPlan(t, rt, s)
		want, err := volcano.New(rt.SM).Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: the heap and the stable sort disagree on ties\n got %v\nwant %v", n, got, want)
		}
	}
}

// A Top-N creates no temp file and writes nothing: no run, no sorted file.
func TestTopNWritesNoTempFile(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	nextTemp := func() string { return rt.SM.TempName("probe") }
	before, writes := nextTemp(), rt.SM.Disk.Stats().Writes
	if got := runPlan(t, rt, topN([]int{2}, true, 10, nil)); len(got) != 10 || got[0][0].I != 2999 {
		t.Fatalf("top 10: %v", got)
	}
	var seqBefore, seqAfter int
	fmt.Sscanf(before, "tmp:probe:%d", &seqBefore)
	fmt.Sscanf(nextTemp(), "tmp:probe:%d", &seqAfter)
	if seqAfter != seqBefore+1 {
		t.Fatalf("the Top-N reserved %d temp names", seqAfter-seqBefore-1)
	}
	if w := rt.SM.Disk.Stats().Writes; w != writes {
		t.Fatalf("the Top-N wrote %d blocks", w-writes)
	}
	// The same sort without the limit does both (the control).
	runPlan(t, rt, topN([]int{2}, true, 0, nil))
	if w := rt.SM.Disk.Stats().Writes; w == writes {
		t.Fatal("the external sort wrote nothing: the counters do not see temp files")
	}
}

// Two equal Top-N packets share by the default rule for as long as the host
// consumes its input; two that differ only in n have different signatures
// and share below the sort, at the scan. The host is mid-input for as long as
// the test likes: a bare scan of the table, its result unread, holds the
// scanner every other scan of the table rides.
func TestTopNSharing(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	ctx := context.Background()
	submit := func(n int64) *core.Query {
		t.Helper()
		q, err := rt.Submit(ctx, topN([]int{2}, true, n, nil))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	drain := func(q *core.Query) []tuple.Tuple {
		t.Helper()
		rows, err := sdDrain(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hold := func() *core.Query {
		t.Helper()
		held, _ := startBlockedScan(t, rt)
		eventually(t, "the held scan blocked on its full buffer", func() bool { return held.Result.Snapshot().PutBlocked })
		return held
	}

	held := hold()
	host := submit(10)
	eventually(t, "the host's scan riding the held one", func() bool { return rt.Stats().SharesByOp[plan.OpTableScan] == 1 })
	sat := submit(10)
	drain(held)
	a, b := drain(host), drain(sat)
	if len(a) != 10 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("host and satellite disagree:\n%v\n%v", a, b)
	}
	// Packets are dispatched leaves first, so the satellite's scan attached
	// to the held scan before its sort attached to the host's sort.
	if got := host.Stats.HostedSatellites.Load(); got < 1 {
		t.Fatal("the host hosted no satellite")
	}
	if got := rt.Stats().SharesByOp[plan.OpSort]; got != 1 {
		t.Fatalf("sort shares: %d, want 1", got)
	}

	scanShares := rt.Stats().SharesByOp[plan.OpTableScan]
	held = hold()
	ten, twenty := submit(10), submit(20)
	drain(held)
	a, b = drain(ten), drain(twenty)
	if len(a) != 10 || len(b) != 20 || fmt.Sprint(a) != fmt.Sprint(b[:10]) {
		t.Fatalf("top 10 and top 20 disagree:\n%v\n%v", a, b)
	}
	if got := rt.Stats().SharesByOp[plan.OpSort]; got != 1 {
		t.Fatalf("sorts that differ in n shared at the sort (%d shares)", got)
	}
	if got := rt.Stats().SharesByOp[plan.OpTableScan] - scanShares; got != 2 {
		t.Fatalf("sorts that differ in n: %d of their two scans rode the table's one page stream", got)
	}
}
