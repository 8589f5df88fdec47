package qpipe

import (
	"context"
	"testing"
	"time"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
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
// commit would report something in between. Each round is deterministic:
// the host starts over a slow disk, the satellite attaches mid-scan, and
// only then does the writer begin a transaction bumping every row to the
// next version — its first table touch queues behind both queries' shared
// locks, so both scans MUST report the round's starting version. The test
// also requires that satellite attachment actually happened, otherwise the
// scenario under test never occurred.
func TestOSPSnapshotConsistency(t *testing.T) {
	const (
		rows   = 5000
		rounds = 6
	)
	d := disk.New(disk.Config{BlockSize: 1024})
	// Pool much smaller than the table so scans go to the (slow) disk and
	// the second query has no buffer-pool shortcut — it must attach.
	m := sm.NewSharedDisk(d, 8, nil)
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
	d.SetLatency(200*time.Microsecond, 0, 0)
	defer d.SetLatency(0, 0, 0)

	eng := New(m, DefaultConfig())
	defer eng.Close()

	ctx := context.Background()
	mk := func() plan.Node {
		scan := plan.NewTableScan("tt", schema, nil, nil, false)
		return plan.NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(1)}})
	}
	sum := func(res *Result) (int64, error) {
		out, err := res.All()
		if err != nil {
			return 0, err
		}
		return int64(out[0][0].F), nil
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
		res1, err := eng.Query(ctx, mk())
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)  // host mid-scan (two partitions finish ~100 pages in about 11 ms)
		res2, err := eng.Query(ctx, mk()) // shared lock held once Query returns
		if err != nil {
			t.Fatal(err)
		}
		// Both queries hold their shared locks now; the writer's exclusive
		// request queues behind them, racing the live scan group.
		done := make(chan error, 1)
		go func() { done <- writeTx(version + 1) }()

		s1, err1 := sum(res1)
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
	d.SetLatency(0, 0, 0)
	res, err := eng.Query(ctx, mk())
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
	if eng.Stats().SharesByOp[plan.OpTableScan] == 0 {
		t.Fatal("no satellite ever attached mid-scan — the scenario under test never occurred")
	}
}
