package ops

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// sortedRows canonicalizes a result set for order-insensitive comparison.
func sortedRows(rows []tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func assertSameRows(t *testing.T, want, got []tuple.Tuple, label string) {
	t.Helper()
	ws, gs := sortedRows(want), sortedRows(got)
	if len(ws) != len(gs) {
		t.Fatalf("%s: row count %d != %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: row %d differs: %q != %q", label, i, gs[i], ws[i])
		}
	}
}

// TestHashJoinParallelMatchesSerialInMemory exercises the small-build
// (in-memory) path: parallel probing must produce exactly the serial rows.
func TestHashJoinParallelMatchesSerialInMemory(t *testing.T) {
	rt := newRT(t, 3000, core.DefaultConfig())
	mk := func() plan.Node {
		l := plan.NewTableScan("t", testSchema(), expr.LT(expr.Col(0), expr.CInt(1500)), []int{0, 1}, false)
		r := plan.NewTableScan("t", testSchema(), nil, []int{0, 2}, false)
		return plan.NewHashJoin(l, r, 0, 0)
	}
	serial := runPar(t, rt, mk(), 1)
	if len(serial) != 1500 {
		t.Fatalf("serial join rows: %d", len(serial))
	}
	for _, par := range []int{2, 4, 8} {
		assertSameRows(t, serial, runPar(t, rt, mk(), par), fmt.Sprintf("par=%d", par))
	}
}

// TestHashJoinParallelMatchesSerialPartitioned pushes the build side past
// hashJoinMaxBuild so the hybrid partitioned (spill) path runs, and checks
// the parallel partition-affine execution against serial output. It also
// checks that no hjb/hjp temp spill files survive the join.
func TestHashJoinParallelMatchesSerialPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("large build input")
	}
	rt := newRT(t, hashJoinMaxBuild+4096, core.DefaultConfig())
	mk := func() plan.Node {
		l := plan.NewTableScan("t", testSchema(), nil, []int{0, 1}, false)
		r := plan.NewTableScan("t", testSchema(), nil, []int{0, 2}, false)
		// Count + per-key sum instead of materializing ~70k joined rows.
		j := plan.NewHashJoin(l, r, 0, 0)
		return plan.NewAggregate(j, []expr.AggSpec{
			{Kind: expr.AggCount},
			{Kind: expr.AggSum, Arg: expr.Col(0)},
			{Kind: expr.AggSum, Arg: expr.Col(3)},
		})
	}
	serial := runPar(t, rt, mk(), 1)
	if serial[0][0].I != int64(hashJoinMaxBuild+4096) {
		t.Fatalf("serial partitioned join count: %v", serial[0][0])
	}
	for _, par := range []int{2, 5, 8} {
		assertSameRows(t, serial, runPar(t, rt, mk(), par), fmt.Sprintf("par=%d", par))
	}
	if files := rt.SM.Disk.FilesWithPrefix("tmp:hjb:"); len(files) != 0 {
		t.Fatalf("leaked build spill files: %v", files)
	}
	if files := rt.SM.Disk.FilesWithPrefix("tmp:hjp:"); len(files) != 0 {
		t.Fatalf("leaked probe spill files: %v", files)
	}
}

// TestGroupByParallelMatchesSerial checks partial-aggregation + merge for
// every aggregate kind against the serial path.
func TestGroupByParallelMatchesSerial(t *testing.T) {
	rt := newRT(t, 5000, core.DefaultConfig())
	specs := []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: expr.Col(2)},
		{Kind: expr.AggMin, Arg: expr.Col(2)},
		{Kind: expr.AggMax, Arg: expr.Col(2)},
		{Kind: expr.AggAvg, Arg: expr.Col(2)},
	}
	groupBy := plan.NewGroupBy(plan.NewTableScan("t", testSchema(), nil, nil, false), []int{1}, specs)
	serial := runPar(t, rt, groupBy, 1)
	if len(serial) != 7 {
		t.Fatalf("serial group count: %d", len(serial))
	}
	for _, par := range []int{2, 4, 8} {
		assertSameRows(t, serial, runPar(t, rt, groupBy, par), fmt.Sprintf("par=%d", par))
	}
}

// TestAggregateParallelMatchesSerial checks the scalar aggregate's
// partial-state merge.
func TestAggregateParallelMatchesSerial(t *testing.T) {
	rt := newRT(t, 5000, core.DefaultConfig())
	specs := []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: expr.Col(2)},
		{Kind: expr.AggMin, Arg: expr.Col(0)},
		{Kind: expr.AggMax, Arg: expr.Col(0)},
		{Kind: expr.AggAvg, Arg: expr.Col(2)},
	}
	agg := plan.NewAggregate(plan.NewTableScan("t", testSchema(), nil, nil, false), specs)
	serial := runPar(t, rt, agg, 1)
	for _, par := range []int{2, 4, 8} {
		assertSameRows(t, serial, runPar(t, rt, agg, par), fmt.Sprintf("par=%d", par))
	}
}

// A merge join that exhausts its other side finishes its query while the
// hash join below it still runs, and the runtime then releases the query's
// context. The hash join's sub-workers must not take that release for a
// cancel: the join also feeds a satellite of another query, which is owed
// its full answer. Both the in-memory probe (parFeed) and the partitioned
// path (routeAffine, then the disk phase) run with sub-workers here.
func TestHashJoinOutlivesItsMergeJoinRoot(t *testing.T) {
	for _, row := range []struct {
		name       string
		n          int
		build      expr.Pred // the build side's filter; every probe row matches one build row
		lkey, rkey int
	}{
		{"in-memory", 20000, expr.LT(expr.Col(0), expr.CInt(7)), 1, 1},
		{"partitioned", hashJoinMaxBuild + 3000, nil, 0, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.build == nil {
				t.Skip("large build input")
			}
			cfg := parCfg(2)
			cfg.BatchSize = 64
			rt := newRT(t, row.n, cfg)
			// The merge join's other side: one row, ordered, whose key sorts
			// before every key of the join's output.
			if _, err := rt.SM.CreateTable("u", testSchema()); err != nil {
				t.Fatal(err)
			}
			if err := rt.SM.Load("u", []tuple.Tuple{{tuple.I64(-1), tuple.I64(0), tuple.F64(0)}}); err != nil {
				t.Fatal(err)
			}
			join := func() plan.Node {
				return plan.NewHashJoin(
					plan.NewTableScan("t", testSchema(), row.build, nil, false),
					plan.NewTableScan("t", testSchema(), nil, nil, false), row.lkey, row.rkey)
			}
			opts := core.QueryOptions{Parallelism: 2}
			// Hold t, so that the second join attaches before the first has
			// produced a row.
			hold, _ := startBlockedScan(t, rt)
			root, err := rt.SubmitOpts(context.Background(),
				plan.NewMergeJoin(plan.NewTableScan("u", testSchema(), nil, nil, true), join(), 0, 0, false), opts)
			if err != nil {
				t.Fatal(err)
			}
			sat, err := rt.SubmitOpts(context.Background(), join(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := rt.Stats().SharesByOp[plan.OpHashJoin]; n != 1 {
				t.Fatalf("hash join shares = %d, want 1", n)
			}
			drainCount(t, hold)
			// The merge join reads one batch of the join and ends; the join
			// then waits on the satellite's unread result.
			if n := drainCount(t, root); n != 0 {
				t.Fatalf("merge join rows = %d, want 0", n)
			}
			<-root.Ctx().Done() // the release
			if n := drainCount(t, sat); n != int64(row.n) {
				t.Fatalf("satellite rows = %d, want %d", n, row.n)
			}
		})
	}
}
