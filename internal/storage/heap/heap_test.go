package heap

import (
	"testing"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

func testSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("id", tuple.KindInt), tuple.Col("name", tuple.KindString))
}

func newFile(t *testing.T) *File {
	t.Helper()
	d := disk.New(disk.Config{BlockSize: 256})
	pool := buffer.NewPool(d, 8, nil)
	return Create(pool, "t", testSchema())
}

func row(i int64, s string) tuple.Tuple {
	return tuple.Tuple{tuple.I64(i), tuple.Str(s)}
}

func TestAppendScanRoundTrip(t *testing.T) {
	f := newFile(t)
	const n = 100
	for i := int64(0); i < n; i++ {
		if _, err := f.Append(row(i, "name")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", f.NumPages())
	}
	var got []int64
	err := f.Scan(func(_ RID, tp tuple.Tuple) bool {
		got = append(got, tp[0].I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d out of order: %d", i, v)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newFile(t)
	for i := int64(0); i < 50; i++ {
		f.Append(row(i, "x"))
	}
	f.Sync()
	count := 0
	f.Scan(func(RID, tuple.Tuple) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop: %d", count)
	}
}

func TestReadTupleByRID(t *testing.T) {
	f := newFile(t)
	var rids []RID
	for i := int64(0); i < 30; i++ {
		r, err := f.Append(row(i, "v"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	f.Sync()
	for i, r := range rids {
		tp, err := f.ReadTuple(r)
		if err != nil {
			t.Fatalf("RID %v: %v", r, err)
		}
		if tp[0].I != int64(i) {
			t.Fatalf("RID %v: got %d want %d", r, tp[0].I, i)
		}
	}
}

func TestSyncMakesVisible(t *testing.T) {
	f := newFile(t)
	f.Append(row(1, "a"))
	// Before sync the tail page is not flushed.
	n, _ := f.Count()
	if n != 0 {
		t.Errorf("unsynced rows visible: %d", n)
	}
	f.Sync()
	n, _ = f.Count()
	if n != 1 {
		t.Errorf("after sync: %d", n)
	}
	// Sync with nothing pending is a no-op.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenExisting(t *testing.T) {
	d := disk.New(disk.Config{BlockSize: 256})
	pool := buffer.NewPool(d, 8, nil)
	f := Create(pool, "t", testSchema())
	for i := int64(0); i < 20; i++ {
		f.Append(row(i, "z"))
	}
	f.Sync()
	g, err := Open(pool, "t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Count()
	if err != nil || n != 20 {
		t.Fatalf("reopened count: %d %v", n, err)
	}
	if _, err := Open(pool, "missing", testSchema()); err == nil {
		t.Error("Open of missing file should fail")
	}
}

func TestRIDOrdering(t *testing.T) {
	a := RID{Page: 1, Slot: 2}
	b := RID{Page: 1, Slot: 3}
	c := RID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("RID.Less ordering")
	}
	if a.String() != "1.2" {
		t.Errorf("RID.String: %q", a.String())
	}
}

func TestReadPage(t *testing.T) {
	f := newFile(t)
	for i := int64(0); i < 40; i++ {
		f.Append(row(i, "pagetest"))
	}
	f.Sync()
	total := 0
	for p := int64(0); p < f.NumPages(); p++ {
		ts, err := f.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(ts)
	}
	if total != 40 {
		t.Errorf("ReadPage total = %d", total)
	}
	if _, err := f.ReadPage(f.NumPages()); err == nil {
		t.Error("ReadPage past EOF should fail")
	}
}

// TestTailPageStaysOpenAcrossSyncs: rows appended across several Syncs
// share a page with dense RIDs; a reader holding that page pinned sees the
// earlier rows stay where they were while later ones arrive; a second pool
// over the same device sees every synced row.
func TestTailPageStaysOpenAcrossSyncs(t *testing.T) {
	f := newFile(t)
	pool := f.Pool()
	for i := int64(0); i < 3; i++ {
		rid, err := f.Append(row(i, "r"))
		if err != nil {
			t.Fatal(err)
		}
		if want := (RID{Page: 0, Slot: int(i)}); rid != want {
			t.Fatalf("row %d at rid %s, want %s", i, rid, want)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if f.NumPages() != 1 {
			t.Fatalf("after %d single-row syncs: %d pages, want 1", i+1, f.NumPages())
		}
	}
	id := buffer.PageID{File: f.Name, Block: 0}
	pinned, err := pool.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), pinned...)
	if rid, err := f.Append(row(3, "r")); err != nil || rid != (RID{Page: 0, Slot: 3}) {
		t.Fatalf("append beside a pinned reader: rid %s, %v", rid, err)
	}
	p, old := page.FromBytes(pinned), page.FromBytes(before)
	if p.NumSlots() != 4 {
		t.Fatalf("pinned page shows %d slots, want 4", p.NumSlots())
	}
	for s := 0; s < 3; s++ {
		got, _ := p.Payload(s)
		want, _ := old.Payload(s)
		if string(got) != string(want) {
			t.Fatalf("slot %d moved or changed under the pinned reader", s)
		}
	}
	pool.Unpin(id)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(buffer.NewPool(pool.Disk(), 8, nil), f.Name, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.Count(); err != nil || n != 4 {
		t.Fatalf("a second pool over the device sees %d rows (%v), want 4", n, err)
	}
	// A full tail is left behind for good; RIDs stay dense across the break.
	var last RID
	for i := int64(4); f.NumPages() < 2; i++ {
		if last, err = f.Append(row(i, "r")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if last != (RID{Page: 1, Slot: 0}) {
		t.Fatalf("first row past a full tail at %s, want 1.0", last)
	}
	var rids []RID
	f.Scan(func(rid RID, _ tuple.Tuple) bool { rids = append(rids, rid); return true })
	for i := 1; i < len(rids); i++ {
		prev, cur := rids[i-1], rids[i]
		if !(cur.Page == prev.Page && cur.Slot == prev.Slot+1) && !(cur.Page == prev.Page+1 && cur.Slot == 0) {
			t.Fatalf("RIDs not dense: %s then %s", prev, cur)
		}
	}
}

// TestSealStartsNewPage: after Seal (what a checkpoint does) and after Open
// (what recovery does) the next append starts a new block, however much room
// the old tail has.
func TestSealStartsNewPage(t *testing.T) {
	f := newFile(t)
	f.Append(row(0, "a"))
	f.Sync()
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	if rid, _ := f.Append(row(1, "b")); rid != (RID{Page: 1, Slot: 0}) {
		t.Fatalf("append after Seal at %s, want 1.0", rid)
	}
	// Seal with rows still in the private page flushes them and seals that.
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	if rid, _ := f.Append(row(2, "c")); rid != (RID{Page: 2, Slot: 0}) {
		t.Fatalf("append after Seal of an unflushed page at %s, want 2.0", rid)
	}
	f.Sync()
	g, err := Open(f.Pool(), f.Name, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rid, _ := g.Append(row(3, "d")); rid != (RID{Page: 3, Slot: 0}) {
		t.Fatalf("append after Open at %s, want 3.0", rid)
	}
}

// BenchmarkHeapAppendSync is the commit pattern: one small row, one Sync.
// blocks/row is what the open tail page is for (1.0 when every Sync closes
// the page; rows-per-page⁻¹ when it stays open).
func BenchmarkHeapAppendSync(b *testing.B) {
	d := disk.New(disk.Config{})
	f := Create(buffer.NewPool(d, 64, nil), "t", testSchema())
	r := row(1, "a 24-byte note, roughly")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Append(r); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.NumPages())/float64(b.N), "blocks/row")
}
