package qpipe

import (
	"context"
	"errors"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
)

// Cancellation tests: a cancelled query must finish with the cancellation
// error — never report success — and must leave no temp spill files behind.
// (Before the ErrConsumersGone sentinel, operators swallowed every output
// error as "consumers gone" and a cancelled join could finish clean.)

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

func TestHashJoinCancelMidProbe(t *testing.T) {
	// Build side larger than the in-memory limit so the hybrid partitioned
	// path runs and spills hjb/hjp partition files.
	mgr := newTestDB(t, 70_000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	// Slow the disk down so the cancel lands mid-join, not post-completion.
	mgr.Pool.Invalidate()
	mgr.Disk.SetLatency(20*time.Microsecond, 30*time.Microsecond, 0)
	defer mgr.Disk.SetLatency(0, 0, 0)

	l := plan.NewTableScan("t", tableSchema(mgr), nil, []int{0, 1}, false)
	r := plan.NewTableScan("t", tableSchema(mgr), nil, []int{0, 2}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, err := db.run(context.Background(), agg, -1, queryOpts{core: core.QueryOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the probe phase: probe spill files exist once the build side
	// is fully partitioned and probing has begun.
	deadline := time.Now().Add(20 * time.Second)
	for len(mgr.Disk.FilesWithPrefix("tmp:hjp:")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("join never reached its probe phase")
		}
		time.Sleep(time.Millisecond)
	}
	res.Cancel()
	if _, err := res.All(); err == nil {
		t.Fatal("cancelled join reported success")
	}
	if werr := res.q.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("root packet error = %v, want context.Canceled", werr)
	}
	for _, pkt := range res.q.Packets() {
		if pkt.Node.Op() == plan.OpHashJoin {
			<-pkt.Done()
			if perr := pkt.Err(); !errors.Is(perr, context.Canceled) {
				t.Fatalf("join packet error = %v, want context.Canceled", perr)
			}
		}
	}
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjb:") }, "build-side")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjp:") }, "probe-side")
}

func TestGroupByCancelMidAggregation(t *testing.T) {
	mgr := newTestDB(t, 40_000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Pool.Invalidate()
	mgr.Disk.SetLatency(30*time.Microsecond, 45*time.Microsecond, 0)
	defer mgr.Disk.SetLatency(0, 0, 0)

	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	gb := plan.NewGroupBy(scan, []int{1}, []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: expr.Col(2)},
	})
	res, err := db.run(context.Background(), gb, -1, queryOpts{core: core.QueryOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the aggregation get under way (the scan alone takes hundreds of
	// milliseconds at this latency), then kill the query mid-flight.
	time.Sleep(20 * time.Millisecond)
	res.Cancel()
	if _, err := res.All(); err == nil {
		t.Fatal("cancelled group-by reported success")
	}
	if werr := res.q.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("root packet error = %v, want context.Canceled", werr)
	}
	for _, pkt := range res.q.Packets() {
		if pkt.Node.Op() == plan.OpGroupBy {
			<-pkt.Done()
			if perr := pkt.Err(); !errors.Is(perr, context.Canceled) {
				t.Fatalf("group-by packet error = %v, want context.Canceled", perr)
			}
		}
	}
}

// TestSortCancelLeavesNoSpills covers the audited sort windows: runs and the
// materialized output file must be cleaned up when the query dies mid-sort.
func TestSortCancelLeavesNoSpills(t *testing.T) {
	mgr := newTestDB(t, 40_000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Pool.Invalidate()
	mgr.Disk.SetLatency(30*time.Microsecond, 45*time.Microsecond, 0)
	defer mgr.Disk.SetLatency(0, 0, 0)

	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), plan.NewSort(scan, []int{2}, false), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	res.Cancel()
	if _, err := res.All(); err == nil {
		t.Fatal("cancelled sort reported success")
	}
	_ = res.q.Wait()
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sortrun:") }, "sort-run")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sorted:") }, "sorted-output")
}
