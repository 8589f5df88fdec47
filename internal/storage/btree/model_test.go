package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/tuple"
)

// The model is a slice of (key, payload) pairs. Among equal keys the tree's
// order depends on where splits fell, so answers are compared as multisets
// per key: both sides sorted on (key, payload).

type pair struct {
	key     tuple.Value
	payload []byte
}

func sortPairs(ps []pair) {
	sort.SliceStable(ps, func(i, j int) bool {
		if c := tuple.Compare(ps[i].key, ps[j].key); c != 0 {
			return c < 0
		}
		return bytes.Compare(ps[i].payload, ps[j].payload) < 0
	})
}

func samePairs(t *testing.T, what string, got, want []pair) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if tuple.Compare(got[i-1].key, got[i].key) > 0 {
			t.Fatalf("%s: keys out of order at %d: %s after %s", what, i, got[i].key, got[i-1].key)
		}
	}
	got, want = append([]pair(nil), got...), append([]pair(nil), want...)
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if tuple.Compare(got[i].key, want[i].key) != 0 || got[i].key.K != want[i].key.K || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: entry %d is (%s, %x), want (%s, %x)", what, i, got[i].key, got[i].payload, want[i].key, want[i].payload)
		}
	}
}

// within filters the model to lo <= key <= hi (invalid = open).
func within(model []pair, lo, hi tuple.Value) []pair {
	var out []pair
	for _, p := range model {
		if lo.IsValid() && tuple.Compare(p.key, lo) < 0 {
			continue
		}
		if hi.IsValid() && tuple.Compare(p.key, hi) > 0 {
			continue
		}
		out = append(out, p)
	}
	return out
}

func collect(t *testing.T, tr *Tree, lo, hi tuple.Value, skip int) []pair {
	t.Helper()
	var out []pair
	err := tr.RangeFrom(lo, hi, skip, func(k tuple.Value, payload []byte) bool {
		out = append(out, pair{k, append([]byte(nil), payload...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// keyGen draws keys of one kind from a small domain, so duplicates are
// common and runs of one key span leaves.
func keyGen(kind tuple.Kind, rng *rand.Rand) tuple.Value {
	n := int64(rng.Intn(400))
	switch kind {
	case tuple.KindFloat:
		return tuple.F64(float64(n-50) / 4)
	case tuple.KindDate:
		return tuple.Date(n - 50)
	case tuple.KindString:
		if n == 0 {
			return tuple.Str("")
		}
		return tuple.Str(fmt.Sprintf("%c%d", 'a'+n%7, n/9))
	default:
		return tuple.I64(n - 50)
	}
}

// rowPayload is a clustered-style payload: the encoded row (key, seq, pad),
// its length varying so that splits see mixed entry sizes.
func rowPayload(k tuple.Value, seq int, rng *rand.Rand) []byte {
	pad := string(bytes.Repeat([]byte{'x'}, rng.Intn(40)))
	return tuple.Tuple{k, tuple.I64(int64(seq)), tuple.Str(pad)}.Encode(nil)
}

func TestModelBulkLoadAndInserts(t *testing.T) {
	kinds := []tuple.Kind{tuple.KindInt, tuple.KindFloat, tuple.KindDate, tuple.KindString}
	for _, blockSize := range []int{512, 8192} {
		for seed := int64(1); seed <= 8; seed++ {
			kind := kinds[seed%int64(len(kinds))]
			t.Run(fmt.Sprintf("block%d/seed%d/%s", blockSize, seed, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				pool := buffer.NewPool(disk.New(disk.Config{BlockSize: blockSize}), 64, nil)
				tr, err := Create(pool, "ix")
				if err != nil {
					t.Fatal(err)
				}
				nBulk, nIns := rng.Intn(1500), 300+rng.Intn(700)
				if blockSize > 512 {
					nBulk, nIns = nBulk*4, nIns*2
				}
				var model []pair
				for i := 0; i < nBulk; i++ {
					k := keyGen(kind, rng)
					model = append(model, pair{k, rowPayload(k, i, rng)})
				}
				sortPairs(model)
				items := make([]Item, len(model))
				for i, p := range model {
					items[i] = Item{Key: p.key, Payload: p.payload}
				}
				if err := tr.BulkLoad(items, []float64{1, 0.7, 0.5}[rng.Intn(3)]); err != nil {
					t.Fatal(err)
				}
				check := func(stage string) {
					t.Helper()
					checkAgainstModel(t, stage, tr, model, kind, rng)
				}
				check("after bulk load")
				for i := 0; i < nIns; i++ {
					k := keyGen(kind, rng)
					p := pair{k, rowPayload(k, nBulk+i, rng)}
					if err := tr.Insert(p.key, p.payload); err != nil {
						t.Fatal(err)
					}
					model = append(model, p)
					if i == nIns/2 {
						check("halfway through the inserts")
					}
				}
				check("after the inserts")
				if err := pool.Flush(); err != nil {
					t.Fatal(err)
				}
				if tr, err = Open(pool, "ix"); err != nil {
					t.Fatal(err)
				}
				check("reopened")
			})
		}
	}
}

func checkAgainstModel(t *testing.T, stage string, tr *Tree, model []pair, kind tuple.Kind, rng *rand.Rand) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if n, err := tr.Count(); err != nil || n != int64(len(model)) {
		t.Fatalf("%s: Count = %d, %v; want %d", stage, n, err, len(model))
	}
	samePairs(t, stage+": full range", collect(t, tr, tuple.Value{}, tuple.Value{}, 0), model)

	// Point lookups: present keys, absent keys, and (for numeric trees) a
	// probe of another numeric kind, which must find the same entries.
	for i := 0; i < 60; i++ {
		k := keyGen(kind, rng)
		probe := k
		if i%3 == 0 {
			switch kind {
			case tuple.KindInt, tuple.KindDate:
				probe = tuple.F64(float64(k.I))
			case tuple.KindFloat:
				if k.F == float64(int64(k.F)) {
					probe = tuple.I64(int64(k.F))
				}
			}
		}
		hits, err := tr.Search(probe)
		if err != nil {
			t.Fatal(err)
		}
		var got []pair
		for _, h := range hits {
			got = append(got, pair{k, h})
		}
		samePairs(t, fmt.Sprintf("%s: Search(%s)", stage, probe), got, within(model, k, k))
	}

	// Ranges: ordinary, empty (lo > hi), beyond either end, half open.
	for i := 0; i < 40; i++ {
		lo, hi := keyGen(kind, rng), keyGen(kind, rng)
		switch i % 5 {
		case 1:
			lo = tuple.Value{}
		case 2:
			hi = tuple.Value{}
		case 3:
			if tuple.Compare(lo, hi) < 0 {
				lo, hi = hi, lo
			}
		}
		samePairs(t, fmt.Sprintf("%s: Range[%s,%s]", stage, lo, hi), collect(t, tr, lo, hi, 0), within(model, lo, hi))
	}
	if kind != tuple.KindString {
		samePairs(t, stage+": range below every key", collect(t, tr, tuple.I64(-1000), tuple.I64(-900), 0), nil)
		samePairs(t, stage+": range above every key", collect(t, tr, tuple.I64(900), tuple.I64(1000), 0), nil)
	}

	// Leaves: the chain, per-leaf decoding, and RangeFrom's leaf skipping.
	pnos, err := tr.LeafPageNos()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pnos)) != tr.NumLeaves() {
		t.Fatalf("%s: %d leaves in the chain, NumLeaves = %d", stage, len(pnos), tr.NumLeaves())
	}
	var leaves [][]pair
	err = tr.ScanLeaves(func(ord int, keys []tuple.Value, payloads [][]byte) bool {
		leaf := make([]pair, len(keys))
		for i := range keys {
			leaf[i] = pair{keys[i], append([]byte(nil), payloads[i]...)}
		}
		leaves = append(leaves, leaf)
		return true
	})
	if err != nil || len(leaves) != len(pnos) {
		t.Fatalf("%s: ScanLeaves saw %d leaves, %v; want %d", stage, len(leaves), err, len(pnos))
	}
	for ord, pno := range pnos {
		rows, err := tr.ReadLeafTuples(pno, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(leaves[ord]) {
			t.Fatalf("%s: leaf %d decodes to %d rows, has %d entries", stage, ord, len(rows), len(leaves[ord]))
		}
		for i, row := range rows {
			if !bytes.Equal(row.Encode(nil), leaves[ord][i].payload) {
				t.Fatalf("%s: leaf %d row %d = %s", stage, ord, i, row)
			}
		}
	}
	skip := rng.Intn(len(leaves) + 1)
	hi := keyGen(kind, rng)
	var rest []pair
	for _, leaf := range leaves[skip:] {
		rest = append(rest, leaf...)
	}
	samePairs(t, fmt.Sprintf("%s: RangeFrom skipping %d leaves", stage, skip),
		collect(t, tr, tuple.Value{}, hi, skip), within(rest, tuple.Value{}, hi))
}

// TestOversizeEntryRejected: an entry over half a node is refused by Fits,
// BulkLoad and Insert instead of being written past the page.
func TestOversizeEntryRejected(t *testing.T) {
	tr, err := Create(newPool(256), "ix")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	if tr.Fits(tuple.I64(1), len(big)) {
		t.Fatal("a 200-byte payload should not fit half a 256-byte node")
	}
	if err := tr.Insert(tuple.I64(1), big); err == nil {
		t.Error("Insert accepted an oversize entry")
	}
	if err := tr.BulkLoad([]Item{{Key: tuple.I64(1), Payload: big}}, 1); err == nil {
		t.Error("BulkLoad accepted an oversize entry")
	}
	if err := tr.Insert(tuple.Str(string(big)), nil); err == nil {
		t.Error("Insert accepted an oversize key")
	}
}

// TestWarmSearchAllocatesOnlyItsHits: the descent and the leaf search work
// on the pinned page bytes.
func TestWarmSearchAllocatesOnlyItsHits(t *testing.T) {
	for _, kind := range []tuple.Kind{tuple.KindInt, tuple.KindString} {
		pool := buffer.NewPool(disk.New(disk.Config{BlockSize: 8192}), 256, nil)
		tr, err := Create(pool, "ix")
		if err != nil {
			t.Fatal(err)
		}
		key := func(i int) tuple.Value {
			if kind == tuple.KindString {
				return tuple.Str(fmt.Sprintf("key-%08d", i))
			}
			return tuple.I64(int64(i))
		}
		items := make([]Item, 50000)
		for i := range items {
			items[i] = Item{Key: key(i * 2), Payload: []byte("0123456789abcdefgh")}
		}
		if err := tr.BulkLoad(items, 1); err != nil {
			t.Fatal(err)
		}
		if tr.Height() < 2 {
			t.Fatalf("height %d: the descent is not exercised", tr.Height())
		}
		hit, miss := key(31000), key(31001)
		for _, k := range []tuple.Value{hit, miss} { // warm the path
			if _, err := tr.Search(k); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(200, func() { tr.Search(miss) }); a != 0 {
			t.Errorf("%s: a warm miss allocates %.1f times, want 0", kind, a)
		}
		// One hit: its payload copy and the slice that returns it.
		if a := testing.AllocsPerRun(200, func() { tr.Search(hit) }); a > 2 {
			t.Errorf("%s: a warm one-hit search allocates %.1f times, want <= 2", kind, a)
		}
		n := 0
		visit := func(tuple.Value, []byte) bool { n++; return true }
		if kind == tuple.KindInt {
			if a := testing.AllocsPerRun(200, func() { tr.Range(key(1000), key(1400), visit) }); a != 0 {
				t.Errorf("a warm 200-entry range over int keys allocates %.1f times, want 0", a)
			}
		}
	}
}

// FuzzNodeBytes overwrites one page of a small two-level tree with
// arbitrary bytes and drives every read entry point over it: the outcome is
// an answer or an error (a *CorruptError for bytes the layout rejects),
// never a panic, an out-of-range slice or an endless walk.
func FuzzNodeBytes(f *testing.F) {
	build := func() (*Tree, *buffer.Pool) {
		pool := buffer.NewPool(disk.New(disk.Config{BlockSize: 256}), 64, nil)
		tr, err := Create(pool, "ix")
		if err != nil {
			f.Fatal(err)
		}
		items := make([]Item, 120)
		for i := range items {
			k := tuple.I64(int64(i))
			items[i] = Item{Key: k, Payload: tuple.Tuple{k, tuple.Str("v")}.Encode(nil)}
		}
		if err := tr.BulkLoad(items, 1); err != nil {
			f.Fatal(err)
		}
		return tr, pool
	}
	seedTree, _ := build()
	for pno := int64(1); pno < seedTree.NumPages(); pno++ {
		raw, err := seedTree.pool.Disk().Read("ix", pno)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(pno), int64(60), "60")
		torn := append([]byte(nil), raw...)
		torn[hdrSize] ^= 0xff // first slot now points elsewhere
		f.Add(torn, uint8(pno), int64(3), "")
	}
	strLeaf := &node{leaf: true, next: 2, entries: []entry{{key: tuple.Str("a"), payload: []byte("p")}, {key: tuple.Str("b")}}}
	buf := make([]byte, 256)
	if err := strLeaf.encode(buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf, uint8(2), int64(0), "b")
	f.Add([]byte{1, 0xff, 0xff}, uint8(1), int64(0), "")

	f.Fuzz(func(t *testing.T, raw []byte, which uint8, ik int64, sk string) {
		tr, pool := build()
		block := make([]byte, 256)
		copy(block, raw)
		pno := 1 + int64(which)%(tr.NumPages()-1)
		if err := pool.Disk().Write("ix", pno, block); err != nil {
			t.Fatal(err)
		}
		accept := func(err error) {
			var ce *CorruptError
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		if n, err := decodeNode(block); err == nil {
			round := make([]byte, 256)
			if err := n.encode(round); err == nil {
				if _, err := decodeNode(round); err != nil {
					t.Fatalf("re-encoded node does not decode: %v", err)
				}
			}
		} else {
			accept(err)
		}
		for _, probe := range []tuple.Value{tuple.I64(ik), tuple.F64(float64(ik) + 0.5), tuple.Str(sk), tuple.Date(ik)} {
			_, err := tr.Search(probe)
			accept(err)
			accept(tr.Range(probe, tuple.Value{}, func(tuple.Value, []byte) bool { return true }))
			accept(tr.RangeFrom(tuple.Value{}, probe, int(which%3), func(tuple.Value, []byte) bool { return true }))
		}
		_, err := tr.ReadLeafTuples(pno, 2)
		accept(err)
		// The leaf's layout: every located value is one the decoder accepts,
		// inside the page, and published — or a typed error and nothing published.
		id := buffer.PageID{File: "ix", Block: pno}
		fr, l, fresh, err := tr.PinLeaf(pno, 2)
		var ee *tuple.EncodingError
		if err != nil && !errors.As(err, &ee) {
			accept(err)
		}
		if err == nil {
			if !fresh || fr.Layout() != l || len(l.Offs) != 3*l.Rows {
				t.Fatalf("fresh %v, published %v, %d offsets for %d rows", fresh, fr.Layout() == l, len(l.Offs), l.Rows)
			}
			for i, off := range l.Offs {
				if i%3 == 2 {
					continue // a row's end
				}
				if w, err := tuple.ValueWidth(fr.Data()[off:]); err != nil || int(off)+w > int(l.Offs[i+1]) {
					t.Fatalf("offset %d (%d): width %d, %v; the next is %d", i, off, w, err, l.Offs[i+1])
				}
			}
			// And its number vectors (tuple.Vectors, as page.Locate's): each entry
			// is the value at its offset.
			for c := 0; c < 2; c++ {
				kind, vec := l.Vec(c)
				for r, bits := range vec {
					var v tuple.Value
					tuple.SetNumber(&v, tuple.Kind(kind), bits)
					if got := tuple.DecodeValue(fr.Data()[l.Offs[r*3+c]:]); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", v) {
						t.Fatalf("column %d row %d: the vector holds %#v, the page %#v", c, r, v, got)
					}
				}
			}
			fr.Unpin()
		} else if fr, perr := pool.PinFrame(id); perr == nil {
			if fr.Layout() != nil {
				t.Fatalf("a leaf that failed (%v) has a layout", err)
			}
			fr.Unpin()
		}
		_, err = tr.LeafPageNos()
		accept(err)
		_, err = tr.Count()
		accept(err)
		_ = tr.Validate() // any error is fine; it must return
	})
}
