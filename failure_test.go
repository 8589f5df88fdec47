package qpipe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
)

// Failure-injection tests: injected disk read errors must surface as query
// errors (never hangs, never silent truncation) and leave both engines
// usable afterwards.

var errInjected = errors.New("injected disk fault")

func TestScanErrorPropagates(t *testing.T) {
	mgr := newTestDB(t, 2000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Pool.Invalidate()
	mgr.Disk.InjectReadFaults("tbl:t", 1, errInjected)
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), scan, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("scan should fail with injected error, got %v", err)
	}
	// Engine stays healthy.
	res2, _ := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	rows, err := res2.All()
	if err != nil || rows[0][0].I != 2000 {
		t.Fatalf("engine unusable after fault: %v %v", rows, err)
	}
}

func TestErrorReachesAllSharingQueries(t *testing.T) {
	// When a shared scan fails, every attached query must see the error.
	mgr := newTestDB(t, 8000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Pool.Invalidate()
	// Fail deep into the scan so the second query attaches first.
	mgr.Disk.InjectReadFaults("tbl:t", 0, nil)
	mk := func(c int64) plan.Node {
		scan := plan.NewTableScan("t", tableSchema(mgr), expr.GE(expr.Col(0), expr.CInt(c)), nil, false)
		return plan.NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggCount}})
	}
	res1, err := db.run(context.Background(), mk(0), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db.run(context.Background(), mk(1), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Arm the fault only after both are submitted (mid-scan).
	mgr.Disk.InjectReadFaults("tbl:t", 1, errInjected)
	_, err1 := res1.All()
	_, err2 := res2.All()
	failures := 0
	for _, e := range []error{err1, err2} {
		if e != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("injected fault lost: both queries succeeded")
	}
	mgr.Disk.InjectReadFaults("", 0, nil)
}

func TestSortSpillErrorPropagates(t *testing.T) {
	mgr := newTestDB(t, 2000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	// Fault every temp-file read: the sorted-run readback must fail.
	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	srt := plan.NewSort(scan, []int{0}, false)
	res, err := db.run(context.Background(), srt, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The sorted output file name is dynamic; fail ALL files briefly. The
	// scan reads through the (warm) pool, so the spill read is what hits
	// the disk.
	mgr.Pool.Flush()
	mgr.Disk.InjectReadFaults("", 1_000_000, errInjected)
	_, allErr := res.All()
	mgr.Disk.InjectReadFaults("", 0, nil)
	if allErr == nil {
		t.Fatal("sort with failing spill reads should error")
	}
}

func TestSortSpillWriteFaultFailsClean(t *testing.T) {
	// A write fault mid-spill (while the sort is writing its run files) must
	// fail the query cleanly: the error surfaces to the caller, every temp
	// file written so far is dropped, and the engine keeps serving.
	mgr := newTestDB(t, 20_000) // > sortRunSize so run files spill
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Disk.InjectWriteFaults("tmp:sortrun:", 1, errInjected)
	defer mgr.Disk.ClearFaults()

	scan := plan.NewTableScan("t", tableSchema(mgr), nil, nil, false)
	res, err := db.run(context.Background(), plan.NewSort(scan, []int{0}, false), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("sort with failing spill write should surface the injected error, got %v", err)
	}
	_ = res.q.Wait()
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sortrun:") }, "sort-run")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:sorted:") }, "sorted-output")

	// Engine stays healthy once the fault is cleared.
	mgr.Disk.ClearFaults()
	res2, err := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res2.All()
	if err != nil || rows[0][0].I != 20_000 {
		t.Fatalf("engine unusable after write fault: %v %v", rows, err)
	}
}

func TestHashJoinSpillWriteFaultFailsClean(t *testing.T) {
	// Same contract for the hybrid hash join: a faulted build-partition
	// write fails the query and leaks no hjb/hjp partition files.
	if testing.Short() {
		t.Skip("large build side")
	}
	mgr := newTestDB(t, 70_000) // large enough to take the partitioned path
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Disk.InjectWriteFaults("tmp:hjb:", 1, errInjected)
	defer mgr.Disk.ClearFaults()

	l := plan.NewTableScan("t", tableSchema(mgr), nil, []int{0, 1}, false)
	r := plan.NewTableScan("t", tableSchema(mgr), nil, []int{0, 2}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, err := db.run(context.Background(), agg, -1, queryOpts{core: core.QueryOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("join with failing build spill should surface the injected error, got %v", err)
	}
	_ = res.q.Wait()
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjb:") }, "build-side")
	waitNoTempFiles(t, func() []string { return mgr.Disk.FilesWithPrefix("tmp:hjp:") }, "probe-side")

	mgr.Disk.ClearFaults()
	res2, err := db.run(context.Background(), plan.NewAggregate(
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false),
		[]expr.AggSpec{{Kind: expr.AggCount}}), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res2.All()
	if err != nil || rows[0][0].I != 70_000 {
		t.Fatalf("engine unusable after write fault: %v %v", rows, err)
	}
}

func TestVolcanoErrorPropagates(t *testing.T) {
	mgr := newTestDB(t, 2000)
	vol := volcano.New(mgr)
	mgr.Pool.Invalidate()
	mgr.Disk.InjectReadFaults("tbl:t", 1, errInjected)
	_, err := vol.RunDiscard(context.Background(),
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false))
	if err == nil {
		t.Fatal("volcano scan should fail with injected fault")
	}
	mgr.Disk.InjectReadFaults("", 0, nil)
	n, err := vol.RunDiscard(context.Background(),
		plan.NewTableScan("t", tableSchema(mgr), nil, nil, false))
	if err != nil || n != 2000 {
		t.Fatalf("volcano unusable after fault: %d %v", n, err)
	}
}

func TestJoinInputErrorPropagates(t *testing.T) {
	mgr := newTestDB(t, 3000)
	db := newDB(mgr, core.DefaultConfig())
	defer db.Close()
	mgr.Pool.Invalidate()
	mgr.Disk.InjectReadFaults("tbl:t", 1, errInjected)
	l := plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 0}, false)
	r := plan.NewTableScan("t", tableSchema(mgr), nil, []int{1, 2}, false)
	j := plan.NewHashJoin(l, r, 0, 0)
	agg := plan.NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	res, err := db.run(context.Background(), agg, -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.All(); err == nil {
		t.Fatal("join over failing scan should error")
	}
	mgr.Disk.InjectReadFaults("", 0, nil)
}
