// Package crashtest is the deterministic crash-point harness for the WAL
// and its recovery path. It enumerates every named crash site the log's
// Hook exposes — mid-record, post-record-pre-fsync, between two blocks of a
// segment sync, the three segment-rotation points, the three checkpoint
// points — and for each one runs a scripted transactional workload,
// simulates a kill exactly at that site (hook panics, disk crashes),
// re-opens the device with a fresh manager, recovers, and asserts the
// surviving state is exactly the committed prefix: every acknowledged
// transaction fully present and at the RIDs it was acknowledged at, the
// in-flight one either fully present or fully absent, nothing torn.
//
// The harness is deliberately not randomized: each (site, mode) cell is a
// reproducible scenario. The randomized counterpart lives in the sm
// package's recovery property test.
package crashtest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// The named crash sites, matching the strings the WAL passes to its Hook.
const (
	// SiteAppendMidRecord fires between the block writes of a record that
	// spans blocks: the crash leaves a torn record at the log tail.
	SiteAppendMidRecord = "append:mid-record"
	// SiteAppendPreFsync fires after a batch is fully written but before
	// any fsync: a drop-volatile crash loses the whole batch.
	SiteAppendPreFsync = "append:post-record-pre-fsync"
	// SiteSyncMidPersist fires inside a segment sync between two of the
	// blocks it makes durable: the lower-numbered ones are, the rest are
	// still volatile — what a kill inside an in-place persist leaves.
	SiteSyncMidPersist = "sync:mid-persist"
	// SiteRotatePreSync fires at segment rotation before the old segment's
	// final fsync.
	SiteRotatePreSync = "rotate:pre-sync"
	// SiteRotatePreCreate fires after the old segment is sealed but before
	// the new one exists.
	SiteRotatePreCreate = "rotate:pre-create"
	// SiteRotatePostCreate fires with the new segment created but nothing
	// written to it.
	SiteRotatePostCreate = "rotate:post-create"
	// SiteCheckpointPreRecord fires with heaps flushed durable but no
	// checkpoint record written.
	SiteCheckpointPreRecord = "checkpoint:pre-record"
	// SiteCheckpointPreSync fires with the checkpoint record written but
	// not yet durable.
	SiteCheckpointPreSync = "checkpoint:pre-sync"
	// SiteCheckpointPreTruncate fires with the checkpoint durable but old
	// segments not yet deleted.
	SiteCheckpointPreTruncate = "checkpoint:pre-truncate"
)

// Sites lists every named crash site, in log-lifecycle order.
var Sites = []string{
	SiteAppendMidRecord,
	SiteAppendPreFsync,
	SiteSyncMidPersist,
	SiteRotatePreSync,
	SiteRotatePreCreate,
	SiteRotatePostCreate,
	SiteCheckpointPreRecord,
	SiteCheckpointPreSync,
	SiteCheckpointPreTruncate,
}

// Modes lists the post-crash disk images: volatile (unsynced) writes
// dropped, retained, and — per file — an ascending prefix of them retained.
var Modes = []disk.CrashMode{disk.CrashDropVolatile, disk.CrashKeepVolatile, disk.CrashKeepPrefix}

// Small geometry so every site is reachable quickly: 256-byte blocks make
// ~90-byte rows span blocks within a batch, and 4-block segments rotate
// every couple of transactions.
const (
	blockSize = 256
	segBlocks = 4
	poolPages = 64
)

// crashSignal is the panic value the armed hook throws to simulate a kill.
type crashSignal struct{ site string }

// harness drives one (site, mode) scenario.
type harness struct {
	t    *testing.T
	site string
	nth  int // kill at the nth time the site fires
	mode disk.CrashMode

	d *disk.Disk
	m *sm.Manager
	l *wal.Log

	// model is the reference: what every acknowledged commit built.
	model map[int64]string
	// pending is the reference including the commit in flight when the
	// crash fired (nil when the crash hit outside a commit).
	pending map[int64]string
	// rids is where each row of model sat in the heap when its commit was
	// acknowledged; recovery must put it back exactly there.
	rids map[int64]heap.RID

	seen    int
	crashed bool
}

func testSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("name", tuple.KindString))
}

// Run executes the scripted workload against a fresh device, kills it at
// an occurrence of the target site after the workload is armed (the first,
// second or third, by seed — so the kill lands at different distances from
// the last checkpoint), recovers with a fresh manager, and verifies exact
// committed-prefix equality. seed also drives CrashKeepPrefix's choice of
// prefix. It fails the test if the site is not reached — every named site
// must actually be covered.
func Run(t *testing.T, site string, mode disk.CrashMode, seed int64) {
	t.Helper()
	h := &harness{t: t, site: site, nth: 1 + int(seed%3), mode: mode, model: make(map[int64]string)}
	h.d = disk.New(disk.Config{BlockSize: blockSize})
	h.m = sm.NewSharedDisk(h.d, poolPages)
	l, err := wal.Open(h.d, wal.Options{SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatal(err)
	}
	h.l = l
	h.m.EnableWAL(l)
	if _, err := h.m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := h.m.BuildUnclustered("t", "id"); err != nil {
		t.Fatal(err)
	}

	// Committed prefix: transactions and a checkpoint before arming, so the
	// crash always has durable history behind it.
	for i := 0; i < 3; i++ {
		h.applyTx(i)
	}
	if err := h.m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Arm: the nth time the target site fires, kill the process image.
	h.l.Hook = func(s string) {
		if s == h.site {
			if h.seen++; h.seen == h.nth {
				panic(crashSignal{site: s})
			}
		}
	}
	for i := 3; i < 60 && !h.crashed; i++ {
		if i%5 == 4 {
			h.guard(func() {
				if err := h.m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			if h.crashed {
				break
			}
		}
		h.guard(func() { h.applyTx(i) })
	}
	if !h.crashed {
		t.Fatalf("crash site %s was reached %d times by the workload, want %d", h.site, h.seen, h.nth)
	}

	// The kill: surviving state is the durable image plus (keep-volatile
	// only) unsynced writes. Re-open everything from the device alone.
	h.d.CrashSeeded(h.mode, seed)
	m2 := sm.NewSharedDisk(h.d, poolPages)
	l2, err := wal.Open(h.d, wal.Options{SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatalf("re-opening WAL after crash at %s: %v", h.site, err)
	}
	m2.EnableWAL(l2)
	if err := m2.Recover(); err != nil {
		t.Fatalf("recovery after crash at %s: %v", h.site, err)
	}
	h.verify(m2)
}

// guard runs one workload step, converting the armed hook's panic into the
// crashed flag. Any other panic propagates.
func (h *harness) guard(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				panic(r)
			}
			h.crashed = true
		}
	}()
	fn()
}

// applyTx stages and commits transaction i: three inserts (long names, so
// records span blocks), one update of an older row, one delete of another.
// The reference model moves to the post-state only after Commit returns;
// while the commit is in flight the post-state sits in pending, so a crash
// inside Commit leaves both candidate outcomes available to verify.
func (h *harness) applyTx(i int) {
	ctx := context.Background()
	tx := h.m.Begin()
	next := make(map[int64]string, len(h.model)+3)
	for k, v := range h.model {
		next[k] = v
	}
	for j := 0; j < 3; j++ {
		id := int64(i*10 + j)
		name := fmt.Sprintf("row-%05d-%s", id, strings.Repeat("x", 64))
		if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(id), tuple.Str(name)}); err != nil {
			h.t.Fatal(err)
		}
		next[id] = name
	}
	if id := int64((i - 2) * 10); i >= 2 {
		if old, ok := next[id]; ok {
			rid, found := h.findRID(tx, id)
			if !found {
				h.t.Fatalf("tx %d: update target id=%d not found", i, id)
			}
			upd := old + "+u"
			if err := tx.StageUpdate(ctx, "t", rid, tuple.Tuple{tuple.I64(id), tuple.Str(upd)}); err != nil {
				h.t.Fatal(err)
			}
			next[id] = upd
		}
	}
	if id := int64((i-3)*10 + 1); i >= 3 {
		if _, ok := next[id]; ok {
			rid, found := h.findRID(tx, id)
			if !found {
				h.t.Fatalf("tx %d: delete target id=%d not found", i, id)
			}
			if err := tx.StageDelete(ctx, "t", rid); err != nil {
				h.t.Fatal(err)
			}
			delete(next, id)
		}
	}
	h.pending = next
	if err := tx.Commit(ctx); err != nil {
		h.t.Fatalf("tx %d commit: %v", i, err)
	}
	h.model = next
	h.pending = nil
	h.rids = make(map[int64]heap.RID, len(next))
	tab, err := h.m.Table("t")
	if err != nil {
		h.t.Fatal(err)
	}
	if err := tab.Heap.Scan(func(rid heap.RID, row tuple.Tuple) bool {
		h.rids[row[0].I] = rid
		return true
	}); err != nil {
		h.t.Fatal(err)
	}
}

// findRID locates the heap RID of the row with the given id through the
// transaction's effective view.
func (h *harness) findRID(tx *sm.Tx, id int64) (heap.RID, bool) {
	var out heap.RID
	found := false
	if err := tx.ScanEffective(context.Background(), "t", func(rid heap.RID, row tuple.Tuple) bool {
		if row[0].I == id {
			out, found = rid, true
			return false
		}
		return true
	}); err != nil {
		h.t.Fatal(err)
	}
	return out, found
}

// verify asserts the recovered table equals the committed prefix exactly:
// the acknowledged model, or — when the crash hit inside a commit whose
// record reached the durable log — that model plus the complete in-flight
// transaction. Anything else (partial transaction, lost acknowledged row,
// torn tuple) is a failure. The rebuilt unclustered index must agree with
// the heap row for every id.
func (h *harness) verify(m *sm.Manager) {
	h.t.Helper()
	tab, err := m.Table("t")
	if err != nil {
		h.t.Fatalf("recovered database lost table t: %v", err)
	}
	got := make(map[int64]string)
	if err := tab.Heap.Scan(func(rid heap.RID, row tuple.Tuple) bool {
		got[row[0].I] = row[1].S
		if want, ok := h.rids[row[0].I]; ok && rid != want {
			h.t.Errorf("crash at %s/%s: id=%d recovered at rid %s, was acknowledged at %s",
				h.site, h.mode, row[0].I, rid, want)
		}
		return true
	}); err != nil {
		h.t.Fatal(err)
	}
	if equalModels(got, h.model) {
		// Committed prefix exactly.
	} else if h.pending != nil && equalModels(got, h.pending) {
		// In-flight commit's record reached the durable log before the
		// crash: the whole transaction is present. Also exact.
	} else {
		h.t.Fatalf("crash at %s/%s: recovered state matches neither the committed prefix nor "+
			"prefix+in-flight:\n  got:       %s\n  committed: %s\n  +inflight: %s",
			h.site, h.mode, renderModel(got), renderModel(h.model), renderModel(h.pending))
	}

	// Index agreement: every recovered row reachable by key, no ghosts.
	ix, ok := tab.Unclustered["id"]
	if !ok {
		h.t.Fatal("recovered database lost the unclustered index on id")
	}
	seen := 0
	for id, name := range got {
		rids, err := ix.Search(tuple.I64(id))
		if err != nil {
			h.t.Fatal(err)
		}
		live := 0
		for _, rb := range rids {
			rid, err := sm.DecodeRID(rb)
			if err != nil {
				h.t.Fatal(err)
			}
			row, err := tab.Heap.ReadTuple(rid)
			if err != nil {
				continue // ghost entry: tombstoned row, skipped by scans
			}
			if row[0].I == id && row[1].S == name {
				live++
			}
		}
		if live != 1 {
			h.t.Fatalf("crash at %s/%s: index finds %d live entries for id=%d, want 1",
				h.site, h.mode, live, id)
		}
		seen++
	}
	_ = seen
}

func equalModels(a, b map[int64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func renderModel(m map[int64]string) string {
	if m == nil {
		return "<none>"
	}
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("%d rows {%s}", len(ids), strings.Join(parts, ","))
}
