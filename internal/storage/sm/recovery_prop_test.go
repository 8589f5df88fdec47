package sm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// TestRecoveryProperty is the randomized counterpart of the deterministic
// crash-point matrix (wal/crashtest): N seeded iterations each run an
// interleaved transactional workload — bulk Loads, single-row Inserts,
// multi-op transactions with updates, deletes and random rollbacks — across
// several goroutines, kill the engine at a random WAL operation (under one of
// the three crash images: volatile blocks dropped, kept, or an ascending
// prefix of them kept), recover with a fresh manager, and require the
// survivors to be exactly the committed prefix. Each worker owns a disjoint
// id range, so the reference model needs no cross-worker coordination and
// the all-or-nothing check is exact per worker: its rows must equal its
// acknowledged state, optionally plus its single in-flight transaction
// (whose commit record may or may not have reached the durable log).
func TestRecoveryProperty(t *testing.T) {
	const iterations = 10
	for iter := 0; iter < iterations; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("seed=%d", iter), func(t *testing.T) {
			runRecoveryIteration(t, int64(1000+iter))
		})
	}
}

// workerRef is one worker's view of the reference model. Only its own
// goroutine touches it while the workload runs.
type workerRef struct {
	committed map[int64]string // acknowledged state of this worker's id range
	uncertain map[int64]string // post-state of the tx in flight at the crash (nil = none)
}

func runRecoveryIteration(t *testing.T, seed int64) {
	const (
		workers    = 4
		opsPerWkr  = 30
		idStride   = 1 << 20 // worker w owns [w*idStride, (w+1)*idStride)
		crashSites = 400
	)
	seedRng := rand.New(rand.NewSource(seed))
	mode := []disk.CrashMode{disk.CrashDropVolatile, disk.CrashKeepVolatile, disk.CrashKeepPrefix}[seedRng.Intn(3)]
	crashAt := int64(1 + seedRng.Intn(crashSites))

	d := disk.New(disk.Config{BlockSize: 512})
	m := NewSharedDisk(d, 128)
	l, err := wal.Open(d, wal.Options{SegmentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableWAL(l)
	if _, err := m.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := m.BuildUnclustered("t", "id"); err != nil {
		t.Fatal(err)
	}

	// The kill switch: the crashAt-th WAL hook call flips dead; every hook
	// call at or after that point panics, so no goroutine can log or apply
	// anything further. Workers catch the panic and stop. (Commits reach the
	// WAL before they touch the heap, so a dead log freezes the heap too.)
	var hookCalls, dead atomic.Int64
	l.Hook = func(string) {
		if hookCalls.Add(1) >= crashAt {
			dead.Store(1)
		}
		if dead.Load() == 1 {
			panic(crashSignal{})
		}
	}

	refs := make([]*workerRef, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ref := &workerRef{committed: make(map[int64]string)}
		refs[w] = ref
		rng := rand.New(rand.NewSource(seed*31 + int64(w)))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(t, m, ref, rng, int64(w)*idStride, opsPerWkr, &dead)
		}(w)
	}
	wg.Wait()

	// The world has stopped (every worker returned); take the crash image
	// and recover into a fresh manager.
	d.CrashSeeded(mode, seed)
	m2 := NewSharedDisk(d, 128)
	l2, err := wal.Open(d, wal.Options{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("seed %d: reopening WAL: %v", seed, err)
	}
	m2.EnableWAL(l2)
	if err := m2.Recover(); err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}

	got := make(map[int64]string)
	tab, err := m2.Table("t")
	if err != nil {
		t.Fatalf("seed %d: table lost: %v", seed, err)
	}
	if err := tab.Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
		got[row[0].I] = row[1].S
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Per worker: its id range must hold exactly its committed state, or
	// exactly committed+in-flight. Anything else is a torn transaction.
	for w, ref := range refs {
		lo, hi := int64(w)*idStride, int64(w+1)*idStride
		gw := make(map[int64]string)
		for id, v := range got {
			if id >= lo && id < hi {
				gw[id] = v
			}
		}
		if mapsEqual(gw, ref.committed) {
			continue
		}
		if ref.uncertain != nil && mapsEqual(gw, ref.uncertain) {
			continue
		}
		t.Errorf("seed %d worker %d: recovered %d rows, committed ref %d, in-flight ref %v — not an exact prefix",
			seed, w, len(gw), len(ref.committed), ref.uncertain != nil)
	}

	// The rebuilt index must resolve every surviving id to its exact row.
	ix := tab.Unclustered["id"]
	if ix == nil {
		t.Fatalf("seed %d: unclustered index lost", seed)
	}
	for id, name := range got {
		rids, err := ix.Search(tuple.I64(id))
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, rb := range rids {
			rid, err := DecodeRID(rb)
			if err != nil {
				t.Fatal(err)
			}
			row, rerr := tab.Heap.ReadTuple(rid)
			if rerr != nil {
				continue // ghost
			}
			if row[0].I == id && row[1].S == name {
				live++
			}
		}
		if live != 1 {
			t.Errorf("seed %d: index resolves id %d to %d live rows, want 1", seed, id, live)
		}
	}
}

type crashSignal struct{}

// runWorker runs one goroutine's op stream until its budget runs out or the
// engine dies under it. Each op is one transaction: a bulk Load, a one-row
// autocommit insert, a rollback, or a staged multi-op transaction.
func runWorker(t *testing.T, m *Manager, ref *workerRef, rng *rand.Rand, base int64, ops int, dead *atomic.Int64) {
	ctx := context.Background()
	nextID := base
	for op := 0; op < ops; op++ {
		if dead.Load() == 1 {
			return
		}
		crashed := runWorkerOp(t, m, ref, rng, &nextID, ctx)
		if crashed {
			return
		}
	}
}

// runWorkerOp performs one random operation. Returns true when the engine
// died mid-operation (the in-flight delta, if it was a commit, is already
// recorded in ref.uncertain).
func runWorkerOp(t *testing.T, m *Manager, ref *workerRef, rng *rand.Rand, nextID *int64, ctx context.Context) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()

	next := make(map[int64]string, len(ref.committed)+4)
	for k, v := range ref.committed {
		next[k] = v
	}

	switch k := rng.Intn(10); {
	case k < 2: // bulk Load of a few rows (autocommit through the Tx path)
		n := 2 + rng.Intn(3)
		rows := make([]tuple.Tuple, n)
		for i := 0; i < n; i++ {
			id := *nextID
			*nextID++
			name := fmt.Sprintf("load-%d", id)
			rows[i] = tuple.Tuple{tuple.I64(id), tuple.Str(name)}
			next[id] = name
		}
		ref.uncertain = next
		if err := m.Load("t", rows); err != nil {
			t.Error(err)
			return false
		}
	case k < 4: // single-row autocommit insert
		id := *nextID
		*nextID++
		name := fmt.Sprintf("ins-%d", id)
		next[id] = name
		ref.uncertain = next
		if err := m.Insert("t", tuple.Tuple{tuple.I64(id), tuple.Str(name)}); err != nil {
			t.Error(err)
			return false
		}
	case k < 5: // staged work, then rollback: must be a no-op
		tx := m.Begin()
		id := *nextID
		*nextID++
		if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(id), tuple.Str("never")}); err != nil {
			t.Error(err)
			tx.Rollback()
			return false
		}
		tx.Rollback()
		return false // committed state unchanged; nothing uncertain
	default: // multi-op transaction: inserts + update + delete of own rows
		tx := m.Begin()
		for i := 0; i < 1+rng.Intn(3); i++ {
			id := *nextID
			*nextID++
			name := fmt.Sprintf("tx-%d", id)
			if err := tx.StageInsert(ctx, "t", tuple.Tuple{tuple.I64(id), tuple.Str(name)}); err != nil {
				t.Error(err)
				tx.Rollback()
				return false
			}
			next[id] = name
		}
		// Mutate up to two existing committed rows of this worker's range.
		own := make([]int64, 0, len(ref.committed))
		for id := range ref.committed {
			own = append(own, id)
		}
		if len(own) > 0 {
			// Deterministic pick order for reproducibility under the seed.
			sortInt64s(own)
			upd := own[rng.Intn(len(own))]
			if rid, ok := findOwnRID(t, tx, ctx, upd); ok {
				name := next[upd] + "'"
				if err := tx.StageUpdate(ctx, "t", rid, tuple.Tuple{tuple.I64(upd), tuple.Str(name)}); err != nil {
					t.Error(err)
					tx.Rollback()
					return false
				}
				next[upd] = name
			}
			del := own[rng.Intn(len(own))]
			if del != upd {
				if rid, ok := findOwnRID(t, tx, ctx, del); ok {
					if err := tx.StageDelete(ctx, "t", rid); err != nil {
						t.Error(err)
						tx.Rollback()
						return false
					}
					delete(next, del)
				}
			}
		}
		ref.uncertain = next
		if err := tx.Commit(ctx); err != nil {
			// Updates append a character; a page of rows can run out of room.
			// A refused commit logged and applied nothing: a clean abort, the
			// reference stays where it was.
			var rejected *CommitRejectedError
			if errors.As(err, &rejected) {
				ref.uncertain = nil
			} else {
				t.Error(err)
			}
			return false
		}
	}
	ref.committed = next
	ref.uncertain = nil
	return false
}

func findOwnRID(t *testing.T, tx *Tx, ctx context.Context, id int64) (heap.RID, bool) {
	var out heap.RID
	found := false
	if err := tx.ScanEffective(ctx, "t", func(rid heap.RID, row tuple.Tuple) bool {
		if row[0].I == id {
			out, found = rid, true
			return false
		}
		return true
	}); err != nil {
		t.Error(err)
	}
	return out, found
}

func mapsEqual(a, b map[int64]string) bool {
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

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
