package qpipe

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// Cancellation tests: a cancelled query must finish with the cancellation
// error — never report success — and must leave no temp spill files behind.
// (An operator that stopped on its dead output port once returned nil, and a
// cancelled join could finish clean; a packet's completion now reads why the
// port stopped and settles a cancelled query's error to its CancelErr.)
//
// Each query under test is held mid-flight by a bare scan left unread
// (holdTable): its own scan rides the held scanner, so it cannot finish
// until the test has cancelled it. No sleep or disk latency places the
// cancel.

// waitNoTempFiles polls until no temp file with the prefix remains (the
// µEngine drops a packet's temp files as its Run returns, which for a packet
// below the root is after the query's own completion is observable).
func waitNoTempFiles(t *testing.T, files func() []string, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		left := files()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s temp files leaked after cancellation: %v", what, left)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// holdTable starts a scan of table's column 1 and leaves its result unread,
// so its scanner, and every scan packet that rides it, stops a few pages in.
// A scan under test must have another signature, or it would be the held
// scan's satellite. until reads the held scan a batch at a time until
// reached holds, failing the test if the held scan ends first; release reads
// the rest.
func holdTable(t *testing.T, db *DB, table string) (until func(what string, reached func() bool), release func()) {
	t.Helper()
	scan := plan.NewTableScan(table, db.mgr.MustTable(table).Schema, nil, []int{1}, false)
	res, err := db.run(context.Background(), scan, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Next(); err != nil {
		t.Fatal(err)
	}
	until = func(what string, reached func() bool) {
		t.Helper()
		for !reached() {
			if _, err := res.Next(); err != nil {
				t.Fatalf("the held scan of %s ended (%v) before %s", table, err, what)
			}
		}
	}
	return until, func() {
		if _, err := res.All(); err != nil {
			t.Fatalf("the held scan of %s: %v", table, err)
		}
	}
}

// assertCancelled checks that the cancelled query res and each of its packets
// of operator op ended with context.Canceled.
func assertCancelled(t *testing.T, res *Result, op plan.OpType) {
	t.Helper()
	if _, err := res.All(); err == nil {
		t.Fatalf("cancelled %s reported success", op)
	}
	if werr := res.q.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("root packet error = %v, want context.Canceled", werr)
	}
	for _, pkt := range res.q.Packets() {
		if pkt.Node.Op() == op {
			<-pkt.Done()
			if perr := pkt.Err(); !errors.Is(perr, context.Canceled) {
				t.Fatalf("%s packet error = %v, want context.Canceled", op, perr)
			}
		}
	}
}

func TestHashJoinCancelMidProbe(t *testing.T) {
	// Build side larger than the in-memory limit so the hybrid partitioned
	// path runs and spills hjb/hjp partition files. The probe side is a
	// table of its own, held, so the join waits in its probe phase.
	mgr := newTestDB(t, 70_000)
	if _, err := mgr.CreateTable("u", tableSchema(mgr)); err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Tuple, 5000)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.I64(int64(i % 10)), tuple.F64(float64(i)), tuple.Str(fmt.Sprintf("u%d", i))}
	}
	if err := mgr.Load("u", rows); err != nil {
		t.Fatal(err)
	}
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	_, release := holdTable(t, db, "u")

	l := plan.NewTableScan("t", tableSchema(mgr), nil, []int{0, 1}, false)
	r := plan.NewTableScan("u", tableSchema(mgr), nil, []int{0, 2}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, err := db.run(context.Background(), agg, -1, queryOpts{core: core.QueryOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// The probe phase: its spill files exist once the build side is fully
	// partitioned; the held probe scan keeps the join there. (The loop waits
	// for a state the hold makes lasting, so its sleep places nothing.)
	deadline := time.Now().Add(20 * time.Second)
	for len(mgr.Disk.FilesWithPrefix("tmp:hjp:")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("join never reached its probe phase")
		}
		time.Sleep(time.Millisecond)
	}
	res.Cancel()
	assertCancelled(t, res, plan.OpHashJoin)
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjb:") }, "build-side")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjp:") }, "probe-side")
	release()
}

func TestGroupByCancelMidAggregation(t *testing.T) {
	mgr := newTestDB(t, 40_000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	until, release := holdTable(t, db, "t")

	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	gb := plan.NewGroupBy(scan, []int{1}, []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: expr.Col(2)},
	})
	res, err := db.run(context.Background(), gb, -1, queryOpts{core: core.QueryOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// The aggregation is under way once its scan was served a page; the held
	// scanner keeps it from finishing.
	until("the group-by was served a page", func() bool { return res.q.Stats.PagesVisited.Load() > 0 })
	res.Cancel()
	assertCancelled(t, res, plan.OpGroupBy)
	release()
}

// TestSortCancelLeavesNoSpills covers the audited sort windows: runs and the
// materialized output file must be cleaned up when the query dies mid-sort.
func TestSortCancelLeavesNoSpills(t *testing.T) {
	mgr := newTestDB(t, 40_000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	until, release := holdTable(t, db, "t")

	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), plan.NewSort(scan, []int{2}, false), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-sort: a first run has spilled, and the held scanner keeps the rest
	// of the input back.
	until("the sort spilled a run", func() bool { return len(mgr.Disk.FilesWithPrefix("tmp:sortrun:")) > 0 })
	res.Cancel()
	assertCancelled(t, res, plan.OpSort)
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sortrun:") }, "sort-run")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sorted:") }, "sorted-output")
	release()
}
