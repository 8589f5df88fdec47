package sm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

func walManager(t *testing.T) *Manager {
	t.Helper()
	m := New(Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 64})
	l, err := wal.Open(m.Disk, wal.Options{SegmentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableWAL(l)
	return m
}

// reopen simulates a restart over the surviving disk image: crash, fresh
// manager + pool + WAL handle, recover.
func reopen(t *testing.T, m *Manager, mode disk.CrashMode) *Manager {
	t.Helper()
	m.Disk.Crash(mode)
	m2 := NewSharedDisk(m.Disk, 64)
	l, err := wal.Open(m.Disk, wal.Options{SegmentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	m2.EnableWAL(l)
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	return m2
}

func rowsOf(t *testing.T, m *Manager, table string) []tuple.Tuple {
	t.Helper()
	tab, err := m.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	if err := tab.Heap.Scan(func(_ heap.RID, r tuple.Tuple) bool {
		rows = append(rows, r.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func testSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("name", tuple.KindString))
}

func TestCommitSurvivesCrash(t *testing.T) {
	for _, mode := range []disk.CrashMode{disk.CrashDropVolatile, disk.CrashKeepVolatile} {
		t.Run(mode.String(), func(t *testing.T) {
			m := walManager(t)
			if _, err := m.CreateTable("t", testSchema()); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			tx := m.Begin()
			for i := 0; i < 10; i++ {
				if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(int64(i)), tuple.Str("row")}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			m2 := reopen(t, m, mode)
			rows := rowsOf(t, m2, "t")
			if len(rows) != 10 {
				t.Fatalf("after crash got %d rows, want 10", len(rows))
			}
			for i, r := range rows {
				if r[0].I != int64(i) {
					t.Fatalf("row %d: id=%d", i, r[0].I)
				}
			}
		})
	}
}

func TestUncommittedVanishesOnCrash(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(1), tuple.Str("committed")}}); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(2), tuple.Str("staged")}); err != nil {
		t.Fatal(err)
	}
	// No commit: crash with the write staged only in memory.
	m2 := reopen(t, m, disk.CrashDropVolatile)
	rows := rowsOf(t, m2, "t")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("uncommitted row leaked: %v", rows)
	}
}

func TestRollbackDiscardsAndUnlocks(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := m.Begin()
	if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(1), tuple.Str("x")}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := len(rowsOf(t, m, "t")); got != 0 {
		t.Fatalf("rollback left %d rows", got)
	}
	// Lock released: another transaction can commit.
	tx2 := m.Begin()
	if err := tx2.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(2), tuple.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(rowsOf(t, m, "t")); got != 1 {
		t.Fatalf("after rollback+commit got %d rows", got)
	}
}

func TestUpdateDeleteRoundtrip(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var rows []tuple.Tuple
	for i := 0; i < 20; i++ {
		rows = append(rows, tuple.Tuple{tuple.I64(int64(i)), tuple.Str("orig")})
	}
	if err := m.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	// Update evens, delete multiples of 5, in one transaction.
	tx := m.Begin()
	if err := tx.ScanEffective(ctx, "t", func(rid heap.RID, row tuple.Tuple) bool {
		id := row[0].I
		if id%5 == 0 {
			if err := tx.StageDelete(ctx, "t", rid); err != nil {
				t.Fatal(err)
			}
		} else if id%2 == 0 {
			if err := tx.StageUpdate(ctx, "t", rid, tuple.Tuple{tuple.I64(id), tuple.Str("upd")}); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	check := func(m *Manager, label string) {
		got := rowsOf(t, m, "t")
		want := 16 // 20 minus ids 0,5,10,15
		if len(got) != want {
			t.Fatalf("%s: %d rows, want %d", label, len(got), want)
		}
		for _, r := range got {
			id := r[0].I
			switch {
			case id%5 == 0:
				t.Fatalf("%s: deleted id %d still present", label, id)
			case id%2 == 0:
				if r[1].S != "upd" {
					t.Fatalf("%s: id %d not updated: %q", label, id, r[1].S)
				}
			default:
				if r[1].S != "orig" {
					t.Fatalf("%s: id %d clobbered: %q", label, id, r[1].S)
				}
			}
		}
	}
	check(m, "live")
	m2 := reopen(t, m, disk.CrashDropVolatile)
	check(m2, "recovered")
}

func TestReadYourOwnWrites(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(1), tuple.Str("a")}}); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(2), tuple.Str("b")}); err != nil {
		t.Fatal(err)
	}
	// Second statement in the same transaction sees the staged insert and
	// can update it.
	var staged heap.RID
	found := false
	if err := tx.ScanEffective(ctx, "t", func(rid heap.RID, row tuple.Tuple) bool {
		if row[0].I == 2 {
			staged, found = rid, true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("staged insert invisible to ScanEffective")
	}
	if err := tx.StageUpdate(ctx, "t", staged, tuple.Tuple{tuple.I64(2), tuple.Str("b2")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, m, "t")
	if len(rows) != 2 || rows[1][1].S != "b2" {
		t.Fatalf("net effect wrong: %v", rows)
	}
}

func TestClusteredMutationRefused(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(1), tuple.Str("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildClustered("t", "id"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := m.Begin()
	defer tx.Rollback()
	var cme *ClusteredMutationError
	err := tx.StageUpdate(ctx, "t", heap.RID{Page: 0, Slot: 0}, tuple.Tuple{tuple.I64(1), tuple.Str("b")})
	if !errors.As(err, &cme) {
		t.Fatalf("update on clustered table: %v", err)
	}
	if err := tx.StageDelete(ctx, "t", heap.RID{Page: 0, Slot: 0}); !errors.As(err, &cme) {
		t.Fatalf("delete on clustered table: %v", err)
	}
}

func TestRecoveryRebuildsIndexes(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	for i := 0; i < 50; i++ {
		rows = append(rows, tuple.Tuple{tuple.I64(int64(i)), tuple.Str("v")})
	}
	if err := m.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildUnclustered("t", "id"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Delete a row after the index build, then crash.
	tx := m.Begin()
	if err := tx.StageDelete(ctx, "t", heap.RID{Page: 0, Slot: 7}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := reopen(t, m, disk.CrashDropVolatile)
	tab, err := m2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := tab.Unclustered["id"]
	if !ok {
		t.Fatal("unclustered index not rebuilt")
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 49 {
		t.Fatalf("rebuilt index has %d entries, want 49 (no ghosts)", n)
	}
}

func TestCheckpointThenRedoTail(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(1), tuple.Str("pre")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(2), tuple.Str("post")}}); err != nil {
		t.Fatal(err)
	}
	m2 := reopen(t, m, disk.CrashDropVolatile)
	rows := rowsOf(t, m2, "t")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (checkpointed + redone)", len(rows))
	}
	if rows[0][1].S != "pre" || rows[1][1].S != "post" {
		t.Fatalf("rows wrong: %v", rows)
	}
}

func TestCommitSeqFence(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	tab, _ := m.Table("t")
	before := tab.CommitSeq()
	if err := m.Insert("t", tuple.Tuple{tuple.I64(1), tuple.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if got := tab.CommitSeq(); got != before+1 {
		t.Fatalf("commit seq %d, want %d", got, before+1)
	}
	// Rollback must not move the fence.
	tx := m.Begin()
	if err := tx.StageInsert(context.Background(), "t", tuple.Tuple{tuple.I64(2), tuple.Str("b")}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := tab.CommitSeq(); got != before+1 {
		t.Fatalf("rollback moved commit seq to %d", got)
	}
}

// TestEveryIndexFollowsLaterRows: rows that arrive after the indexes were
// built — by Load or by a committed insert, with a WAL or without — are in
// the clustered tree and in the unclustered ones, and a crash rebuilds both
// to the same contents.
func TestEveryIndexFollowsLaterRows(t *testing.T) {
	for _, withWAL := range []bool{true, false} {
		m := newMgr()
		if withWAL {
			m = walManager(t)
		}
		if _, err := m.CreateTable("t", testSchema()); err != nil {
			t.Fatal(err)
		}
		batch := func(from, n int) []tuple.Tuple {
			rows := make([]tuple.Tuple, n)
			for i := range rows {
				rows[i] = tuple.Tuple{tuple.I64(int64(from + i)), tuple.Str(fmt.Sprintf("n%03d", (from+i)%50))}
			}
			return rows
		}
		if err := m.Load("t", batch(0, 300)); err != nil {
			t.Fatal(err)
		}
		if err := m.BuildClustered("t", "id"); err != nil {
			t.Fatal(err)
		}
		if err := m.BuildUnclustered("t", "name"); err != nil {
			t.Fatal(err)
		}
		if err := m.Load("t", batch(300, 300)); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert("t", tuple.Tuple{tuple.I64(9000), tuple.Str("n007")}); err != nil {
			t.Fatal(err)
		}
		check := func(m *Manager, stage string) {
			t.Helper()
			tab := m.MustTable("t")
			want := int64(len(rowsOf(t, m, "t")))
			if want != 601 {
				t.Fatalf("wal=%v %s: %d rows, want 601", withWAL, stage, want)
			}
			for name, tr := range map[string]interface{ Count() (int64, error) }{
				"clustered": tab.Clustered, "unclustered": tab.Unclustered["name"]} {
				if n, err := tr.Count(); err != nil || n != want {
					t.Fatalf("wal=%v %s: the %s index has %d entries (%v), the heap %d rows", withWAL, stage, name, n, err, want)
				}
			}
			if err := tab.Clustered.Validate(); err != nil {
				t.Fatal(err)
			}
			hits, err := tab.Clustered.Search(tuple.I64(450))
			if err != nil || len(hits) != 1 {
				t.Fatalf("wal=%v %s: clustered lookup of a later row: %d hits, %v", withWAL, stage, len(hits), err)
			}
			hits, err = tab.Unclustered["name"].Search(tuple.Str("n007"))
			if wantHits := int(want) / 50; err != nil || len(hits) < wantHits {
				t.Fatalf("wal=%v %s: unclustered lookup: %d hits, %v; want >= %d", withWAL, stage, len(hits), err, wantHits)
			}
		}
		check(m, "live")
		if withWAL {
			check(reopen(t, m, disk.CrashDropVolatile), "recovered")
		}
	}
}

// TestIndexEntryThatCannotBeStoredRejectsTheCommit: a row whose index entry
// would not fit half a B+tree node is refused by validation, before the
// commit record is logged — afterwards it could only fail in the apply.
func TestIndexEntryThatCannotBeStoredRejectsTheCommit(t *testing.T) {
	m := walManager(t) // 1 KiB blocks: a 600-byte key is over half a node
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.Load("t", []tuple.Tuple{{tuple.I64(1), tuple.Str("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildUnclustered("t", "name"); err != nil {
		t.Fatal(err)
	}
	lsn := m.WAL().LSN()
	long := tuple.Str(strings.Repeat("x", 600))
	var rej *CommitRejectedError
	if err := m.Insert("t", tuple.Tuple{tuple.I64(2), long}); !errors.As(err, &rej) {
		t.Fatalf("insert of an unindexable key: %v", err)
	}
	ctx := context.Background()
	tx := m.Begin()
	if err := tx.StageUpdate(ctx, "t", heap.RID{Page: 0, Slot: 0}, tuple.Tuple{tuple.I64(1), long}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.As(err, &rej) {
		t.Fatalf("update to an unindexable key: %v", err)
	}
	if got := m.WAL().LSN(); got != lsn {
		t.Fatalf("a rejected commit reached the log: LSN %d -> %d", lsn, got)
	}
	if rows := rowsOf(t, m, "t"); len(rows) != 1 || rows[0][1].S != "a" {
		t.Fatalf("a rejected commit changed the table: %v", rows)
	}
}

// TestRetractedInsertOnIndexedTable: an insert deleted again inside its
// transaction reaches neither the heap nor a tree, and commit validation
// steps over the hole it leaves in the staged rows.
func TestRetractedInsertOnIndexedTable(t *testing.T) {
	m := walManager(t)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildUnclustered("t", "id"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := m.Begin()
	for _, id := range []int64{1, 2} {
		if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(id), tuple.Str("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.StageDelete(ctx, "t", heap.RID{Page: -1, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	n, err := m.MustTable("t").Unclustered["id"].Count()
	if rows := rowsOf(t, m, "t"); len(rows) != 1 || rows[0][0].I != 2 || err != nil || n != 1 {
		t.Fatalf("rows %v, %d index entries (%v); want the one row with id 2", rows, n, err)
	}
}
