package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/tuple"
)

func newPool(blockSize int) *buffer.Pool {
	d := disk.New(disk.Config{BlockSize: blockSize})
	return buffer.NewPool(d, 64, nil)
}

func intItems(n int) []Item {
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		items[i] = Item{Key: tuple.I64(int64(i)), Payload: []byte(fmt.Sprintf("p%d", i))}
	}
	return items
}

func TestBulkLoadAndSearch(t *testing.T) {
	pool := newPool(256)
	tr, err := Create(pool, "ix")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(intItems(500), 1.0); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("500 keys in 256B pages should need height >= 2, got %d", tr.Height())
	}
	for _, k := range []int64{0, 1, 250, 499} {
		got, err := tr.Search(tuple.I64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || string(got[0]) != fmt.Sprintf("p%d", k) {
			t.Errorf("Search(%d): %q", k, got)
		}
	}
	if got, _ := tr.Search(tuple.I64(1000)); len(got) != 0 {
		t.Errorf("Search(missing): %q", got)
	}
	n, err := tr.Count()
	if err != nil || n != 500 {
		t.Fatalf("Count: %d %v", n, err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadUnsortedRejected(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	items := []Item{
		{Key: tuple.I64(2)}, {Key: tuple.I64(1)},
	}
	if err := tr.BulkLoad(items, 1.0); err == nil {
		t.Error("unsorted bulk load should fail")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	if err := tr.BulkLoad(nil, 1.0); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Count()
	if err != nil || n != 0 {
		t.Fatalf("empty tree count: %d %v", n, err)
	}
	if got, _ := tr.Search(tuple.I64(1)); len(got) != 0 {
		t.Error("search in empty tree")
	}
}

func TestRangeScan(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	tr.BulkLoad(intItems(300), 1.0)
	var got []int64
	err := tr.Range(tuple.I64(100), tuple.I64(110), func(k tuple.Value, p []byte) bool {
		got = append(got, k.I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Errorf("Range: %v", got)
	}
	// Open-ended ranges.
	count := 0
	tr.Range(tuple.Value{}, tuple.Value{}, func(tuple.Value, []byte) bool { count++; return true })
	if count != 300 {
		t.Errorf("full range: %d", count)
	}
	count = 0
	tr.Range(tuple.I64(295), tuple.Value{}, func(tuple.Value, []byte) bool { count++; return true })
	if count != 5 {
		t.Errorf("lo-open range: %d", count)
	}
	// Early stop.
	count = 0
	tr.Range(tuple.Value{}, tuple.Value{}, func(tuple.Value, []byte) bool { count++; return count < 7 })
	if count != 7 {
		t.Errorf("early stop: %d", count)
	}
}

func TestScanLeavesOrdinalAndChaining(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	tr.BulkLoad(intItems(300), 1.0)
	lastOrd := -1
	var prev int64 = -1
	total := 0
	err := tr.ScanLeaves(func(ord int, keys []tuple.Value, payloads [][]byte) bool {
		if ord != lastOrd+1 {
			t.Fatalf("leaf ordinals not consecutive: %d after %d", ord, lastOrd)
		}
		lastOrd = ord
		if len(keys) != len(payloads) {
			t.Fatal("keys/payloads length mismatch")
		}
		for _, k := range keys {
			if k.I <= prev {
				t.Fatalf("keys not ascending: %d after %d", k.I, prev)
			}
			prev = k.I
			total++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 300 {
		t.Errorf("total = %d", total)
	}
	if nl := tr.NumLeaves(); nl != int64(lastOrd+1) {
		t.Errorf("NumLeaves: %d vs %d", nl, lastOrd+1)
	}
}

func TestRangeFromSkipLeaves(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	tr.BulkLoad(intItems(300), 1.0)
	// Collect per-leaf first keys.
	var firstKeys []int64
	tr.ScanLeaves(func(ord int, keys []tuple.Value, _ [][]byte) bool {
		firstKeys = append(firstKeys, keys[0].I)
		return true
	})
	if len(firstKeys) < 3 {
		t.Skip("need at least 3 leaves")
	}
	var got []int64
	err := tr.RangeFrom(tuple.Value{}, tuple.Value{}, 2, func(k tuple.Value, _ []byte) bool {
		got = append(got, k.I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != firstKeys[2] {
		t.Errorf("skip 2 leaves: first key %d, want %d", got[0], firstKeys[2])
	}
}

func TestDuplicateKeys(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	var items []Item
	for i := 0; i < 50; i++ {
		items = append(items, Item{Key: tuple.I64(int64(i / 5)), Payload: []byte{byte(i)}})
	}
	tr.BulkLoad(items, 1.0)
	got, err := tr.Search(tuple.I64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("duplicates: got %d payloads, want 5", len(got))
	}
}

func TestInsertIntoBulkLoaded(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	// Sparse initial load.
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, Item{Key: tuple.I64(int64(i * 10)), Payload: []byte("orig")})
	}
	tr.BulkLoad(items, 1.0)
	// Insert between existing keys; splits must occur (leaves are packed full).
	for i := 0; i < 100; i++ {
		if err := tr.Insert(tuple.I64(int64(i*10+5)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := tr.Count()
	if n != 200 {
		t.Fatalf("count after inserts: %d", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Search(tuple.I64(55))
	if len(got) != 1 || string(got[0]) != "new" {
		t.Errorf("inserted key: %q", got)
	}
	got, _ = tr.Search(tuple.I64(50))
	if len(got) != 1 || string(got[0]) != "orig" {
		t.Errorf("original key survived: %q", got)
	}
}

func TestInsertIntoEmptyGrowsRoot(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	for i := 0; i < 200; i++ {
		if err := tr.Insert(tuple.I64(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("height after 200 inserts: %d", tr.Height())
	}
	n, _ := tr.Count()
	if n != 200 {
		t.Fatalf("count: %d", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRandomizedProperty is the btree's property test: random insert
// orders must always produce a tree that scans back in sorted order with all
// inserted keys present.
func TestInsertRandomizedProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := newPool(256)
		tr, _ := Create(pool, fmt.Sprintf("ix%d", seed))
		keys := rng.Perm(300)
		for _, k := range keys {
			if err := tr.Insert(tuple.I64(int64(k)), []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var got []int
		tr.Range(tuple.Value{}, tuple.Value{}, func(k tuple.Value, _ []byte) bool {
			got = append(got, int(k.I))
			return true
		})
		if len(got) != 300 {
			t.Fatalf("seed %d: got %d keys", seed, len(got))
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("seed %d: scan not sorted", seed)
		}
	}
}

func TestOpenExistingTree(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	tr.BulkLoad(intItems(100), 1.0)
	pool.Flush()
	tr2, err := Open(pool, "ix")
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr2.Count()
	if err != nil || n != 100 {
		t.Fatalf("reopened: %d %v", n, err)
	}
	if tr2.Height() != tr.Height() {
		t.Error("height mismatch after reopen")
	}
	if _, err := Open(pool, "missing"); err == nil {
		t.Error("Open missing should fail")
	}
}

func TestStringKeys(t *testing.T) {
	pool := newPool(256)
	tr, _ := Create(pool, "ix")
	words := []string{"apple", "banana", "cherry", "date", "elderberry", "fig", "grape"}
	var items []Item
	for _, w := range words {
		items = append(items, Item{Key: tuple.Str(w), Payload: []byte(w)})
	}
	tr.BulkLoad(items, 1.0)
	got, _ := tr.Search(tuple.Str("cherry"))
	if len(got) != 1 || string(got[0]) != "cherry" {
		t.Errorf("string key search: %q", got)
	}
	var rng []string
	tr.Range(tuple.Str("banana"), tuple.Str("date"), func(k tuple.Value, _ []byte) bool {
		rng = append(rng, k.S)
		return true
	})
	if len(rng) != 3 || rng[0] != "banana" || rng[2] != "date" {
		t.Errorf("string range: %v", rng)
	}
}

func TestFillFactorMakesMoreLeaves(t *testing.T) {
	mk := func(ff float64) int64 {
		pool := newPool(512)
		tr, _ := Create(pool, "ix")
		tr.BulkLoad(intItems(400), ff)
		return tr.NumLeaves()
	}
	full := mk(1.0)
	half := mk(0.5)
	if half <= full {
		t.Errorf("fill factor 0.5 (%d leaves) should produce more leaves than 1.0 (%d)", half, full)
	}
}
