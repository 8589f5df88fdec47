package page

import (
	"bytes"
	"math/rand"
	"testing"

	"qpipe/internal/tuple"
)

func TestInsertAndRead(t *testing.T) {
	p := New(256)
	if p.NumSlots() != 0 {
		t.Fatal("new page should be empty")
	}
	s0, err := p.Insert([]byte("alpha"))
	if err != nil || s0 != 0 {
		t.Fatalf("Insert: %d %v", s0, err)
	}
	s1, _ := p.Insert([]byte("beta"))
	if s1 != 1 {
		t.Fatalf("slot numbering: %d", s1)
	}
	b, err := p.Payload(0)
	if err != nil || string(b) != "alpha" {
		t.Errorf("Payload(0): %q %v", b, err)
	}
	b, _ = p.Payload(1)
	if string(b) != "beta" {
		t.Errorf("Payload(1): %q", b)
	}
	if _, err := p.Payload(2); err == nil {
		t.Error("out-of-range slot should fail")
	}
	if _, err := p.Payload(-1); err == nil {
		t.Error("negative slot should fail")
	}
}

func TestFillUntilFull(t *testing.T) {
	p := New(128)
	payload := []byte("0123456789")
	n := 0
	for p.HasRoomFor(len(payload)) {
		if _, err := p.Insert(payload); err != nil {
			t.Fatalf("Insert while HasRoomFor: %v", err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("page should fit at least one payload")
	}
	if _, err := p.Insert(payload); err == nil {
		t.Error("Insert into full page should fail")
	}
	// All payloads still intact.
	for i := 0; i < n; i++ {
		b, err := p.Payload(i)
		if err != nil || string(b) != "0123456789" {
			t.Fatalf("slot %d corrupted: %q %v", i, b, err)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	p := New(512)
	rows := []tuple.Tuple{
		{tuple.I64(1), tuple.Str("a")},
		{tuple.I64(2), tuple.Str("bb")},
		{tuple.I64(3), tuple.Str("")},
	}
	for _, r := range rows {
		if _, err := p.InsertTuple(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Tuples(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Tuples: %d", len(got))
	}
	for i := range rows {
		if tuple.CompareAt(rows[i], got[i], []int{0, 1}) != 0 {
			t.Errorf("row %d: %v != %v", i, rows[i], got[i])
		}
	}
}

func TestFromBytesSurvivesCopy(t *testing.T) {
	p := New(256)
	p.Insert([]byte("persist"))
	raw := make([]byte, 256)
	copy(raw, p.Bytes())
	q := FromBytes(raw)
	if q.NumSlots() != 1 {
		t.Fatal("NumSlots after copy")
	}
	b, _ := q.Payload(0)
	if string(b) != "persist" {
		t.Errorf("Payload after copy: %q", b)
	}
}

func TestRandomizedFill(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		p := New(1024)
		var want [][]byte
		for {
			n := 1 + rng.Intn(60)
			buf := make([]byte, n)
			rng.Read(buf)
			if !p.HasRoomFor(n) {
				break
			}
			if _, err := p.Insert(buf); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			want = append(want, buf)
		}
		if p.NumSlots() != len(want) {
			t.Fatalf("iter %d: slots %d want %d", iter, p.NumSlots(), len(want))
		}
		for i, w := range want {
			got, err := p.Payload(i)
			if err != nil || string(got) != string(w) {
				t.Fatalf("iter %d slot %d mismatch", iter, i)
			}
		}
	}
}

func TestFreeSpaceAccounting(t *testing.T) {
	p := New(256)
	before := p.FreeSpace()
	p.Insert(make([]byte, 10))
	after := p.FreeSpace()
	// 10 payload bytes + 4 slot bytes.
	if before-after != 14 {
		t.Errorf("FreeSpace delta = %d, want 14", before-after)
	}
}

// TestInsertTupleScratch verifies the bulk-load insert path reuses one
// encode buffer across rows: same bytes as InsertTuple, zero allocations
// once the scratch has grown to the largest row.
func TestInsertTupleScratch(t *testing.T) {
	a, b := New(512), New(512)
	var scratch []byte
	rows := []tuple.Tuple{
		{tuple.I64(1), tuple.Str("aa")},
		{tuple.I64(2), tuple.Str("")},
		{tuple.I64(3), tuple.Str("a much longer payload string")},
	}
	for _, r := range rows {
		if _, err := a.InsertTuple(r); err != nil {
			t.Fatal(err)
		}
		var err error
		_, scratch, err = b.InsertTupleScratch(r, scratch)
		if err != nil {
			t.Fatal(err)
		}
	}
	ga, _ := a.Tuples(2)
	gb, _ := b.Tuples(2)
	for i := range ga {
		if tuple.CompareAt(ga[i], gb[i], []int{0, 1}) != 0 {
			t.Fatalf("row %d: scratch insert %v != plain insert %v", i, gb[i], ga[i])
		}
	}
	row := tuple.Tuple{tuple.I64(9), tuple.Str("steady")}
	steady := New(32 << 10)
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		_, scratch, err = steady.InsertTupleScratch(row, scratch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("InsertTupleScratch steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestCheckMutationsPredictsApply: over seeded pages and mutation sets,
// CheckMutations returns nil exactly when DeleteAt for every delete followed
// by ReplaceAt for every update, in order, succeeds — and it never touches
// the page.
func TestCheckMutationsPredictsApply(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(256)
		for p.HasRoomFor(24) && rng.Intn(12) > 0 {
			p.Insert(bytes.Repeat([]byte{'r'}, 4+rng.Intn(20)))
		}
		n := p.NumSlots()
		if n == 0 {
			continue
		}
		for i := 0; i < n/4; i++ { // some earlier deletions
			p.DeleteAt(rng.Intn(n))
		}
		var deletes []int
		var updates []Replacement
		taken := make(map[int]bool)
		for i := 0; i < 1+rng.Intn(4); i++ {
			s := rng.Intn(n + 1) // n itself: out of range
			if taken[s] {
				continue
			}
			taken[s] = true
			if rng.Intn(3) == 0 {
				deletes = append(deletes, s)
			} else {
				updates = append(updates, Replacement{Slot: s, Len: rng.Intn(80)})
			}
		}
		before := append([]byte(nil), p.Bytes()...)
		checkErr := p.CheckMutations(deletes, updates)
		if !bytes.Equal(before, p.Bytes()) {
			t.Fatalf("seed %d: CheckMutations modified the page", seed)
		}
		var applyErr error
		for _, s := range deletes {
			if err := p.DeleteAt(s); err != nil && applyErr == nil {
				applyErr = err
			}
		}
		for _, u := range updates {
			if applyErr != nil {
				break
			}
			applyErr = p.ReplaceAt(u.Slot, bytes.Repeat([]byte{'u'}, u.Len))
		}
		if (checkErr == nil) != (applyErr == nil) {
			t.Fatalf("seed %d: CheckMutations said %v, applying said %v (deletes %v, updates %v)",
				seed, checkErr, applyErr, deletes, updates)
		}
	}
}
