package qpipe

import (
	"context"
	"io"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/sm"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// TestOSPSnapshotConsistency: a satellite that attaches to a host scan
// mid-flight while a concurrent transaction is waiting to rewrite the same
// table must see exactly the same committed state as the host — all rows
// pre-commit, never a mix, never the half-applied transaction.
//
// Every committed state of the table has val = k (a version number) in all
// rows, so sum(val) = rows*k exactly; a scan that observed a half-applied
// commit would report something in between. Each round is scripted by
// back-pressure: the host is a bare scan read two batches and no further
// (its sum is taken from its rows here), so it is mid-scan when the satellite
// — the aggregate — attaches, and both are still there when the writer
// begins a transaction bumping every row to the next version. Its first
// table touch queues behind both queries' shared locks, and only once it is
// seen queued is anything drained, so both scans MUST report the round's
// starting version. The test also requires that the satellite attached in
// every round, otherwise the scenario under test never occurred.
func TestOSPSnapshotConsistency(t *testing.T) {
	const (
		rows   = 5000
		rounds = 6
	)
	d := disk.New(disk.Config{BlockSize: 1024})
	// Pool much smaller than the table: the second query has no buffer-pool
	// shortcut — it must attach.
	m := sm.NewSharedDisk(d, 8)
	l, err := wal.Open(d, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableWAL(l)
	schema := tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("val", tuple.KindInt))
	if _, err := m.CreateTable("tt", schema); err != nil {
		t.Fatal(err)
	}
	initial := make([]tuple.Tuple, rows)
	for i := range initial {
		initial[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.I64(1)} // version 1
	}
	if err := m.Load("tt", initial); err != nil {
		t.Fatal(err)
	}
	db := newDB(m, core.DefaultConfig())
	defer db.Close()

	ctx := context.Background()
	scan := func() plan.Node { return plan.NewTableScan("tt", schema, nil, nil, false) }
	mk := func() plan.Node {
		return plan.NewAggregate(scan(), []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(1)}})
	}
	sum := func(res *Result) (int64, error) {
		out, err := res.All()
		if err != nil {
			return 0, err
		}
		return int64(out[0][0].F), nil
	}
	// sumRows adds up val over the batches a bare scan returns.
	sumRows := func(res *Result, batches int) (int64, error) {
		var s int64
		for ; batches != 0; batches-- {
			b, err := res.Next()
			if err == io.EOF {
				return s, res.Err()
			}
			if err != nil {
				return s, err
			}
			for _, row := range b {
				s += row[1].I
			}
		}
		return s, nil
	}
	// writeTx commits one transaction setting every row's val to version k.
	// Its first table touch takes the X lock, so against live readers the
	// whole transaction queues until their shared locks drain.
	writeTx := func(k int64) error {
		tx := m.Begin()
		type target struct {
			rid heap.RID
			id  int64
		}
		var tgts []target
		if err := tx.ScanEffective(ctx, "tt", func(rid heap.RID, row tuple.Tuple) bool {
			tgts = append(tgts, target{rid, row[0].I})
			return true
		}); err != nil {
			tx.Rollback()
			return err
		}
		for _, tg := range tgts {
			if err := tx.StageUpdate(ctx, "tt", tg.rid, tuple.Tuple{tuple.I64(tg.id), tuple.I64(k)}); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit(ctx)
	}

	for round := 0; round < rounds; round++ {
		version := int64(round + 1) // committed state entering this round
		res1, err := db.run(ctx, scan(), -1, queryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s1, err := sumRows(res1, 2) // host mid-scan, and held there
		if err != nil {
			t.Fatal(err)
		}
		res2, err := db.run(ctx, mk(), -1, queryOpts{}) // shared lock held once Query returns
		if err != nil {
			t.Fatal(err)
		}
		// Both queries hold their shared locks now; the writer's exclusive
		// request queues behind them. A queued writer turns new readers
		// away, which is how it is seen.
		done := make(chan error, 1)
		go func() { done <- writeTx(version + 1) }()
		waitCount(t, "writer queued", 1, func() int64 {
			if m.Locks.TryLock("tt", lock.Shared) {
				m.Locks.Unlock("tt", lock.Shared)
				return 0
			}
			return 1
		})

		rest, err1 := sumRows(res1, -1)
		s1 += rest
		s2, err2 := sum(res2)
		if err1 != nil || err2 != nil {
			// A TornScanError here would mean a commit slid under a live
			// scan group — exactly the invariant this test defends.
			t.Fatalf("round %d: host err=%v satellite err=%v", round, err1, err2)
		}
		if want := rows * version; s1 != want || s2 != want {
			t.Fatalf("round %d: host sum %d, satellite sum %d, want %d (version %d) — "+
				"scan group saw a state other than the committed snapshot",
				round, s1, s2, want, version)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: writer: %v", round, err)
		}
	}

	// Serial-run parity: after all rounds the table must be exactly at the
	// final version.
	res, err := db.run(ctx, mk(), -1, queryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := sum(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rows * (rounds + 1)); final != want {
		t.Fatalf("final sum %d, want %d", final, want)
	}
	if got := db.Stats().SharesByOp[plan.OpTableScan]; got != rounds {
		t.Fatalf("%d satellites attached mid-scan in %d rounds — the scenario under test did not occur in each", got, rounds)
	}
}
