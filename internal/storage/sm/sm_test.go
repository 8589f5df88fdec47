package sm

import (
	"fmt"
	"testing"

	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/tuple"
)

func newMgr() *Manager {
	return New(Config{Disk: disk.Config{BlockSize: 512}, PoolPages: 32})
}

func schema2() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.KindInt), tuple.Col("v", tuple.KindString))
}

func rows(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.Str(fmt.Sprintf("v%03d", i))}
	}
	return out
}

func TestCreateLoadScan(t *testing.T) {
	m := newMgr()
	tb, err := m.CreateTable("t", schema2())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTable("t", schema2()); err == nil {
		t.Error("duplicate create should fail")
	}
	if err := m.Load("t", rows(100)); err != nil {
		t.Fatal(err)
	}
	n, err := tb.Heap.Count()
	if err != nil || n != 100 {
		t.Fatalf("count: %d %v", n, err)
	}
	if _, err := m.Table("missing"); err == nil {
		t.Error("missing table lookup should fail")
	}
	names := m.Tables()
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("Tables: %v", names)
	}
}

func TestMustTablePanics(t *testing.T) {
	m := newMgr()
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic")
		}
	}()
	m.MustTable("nope")
}

func TestBuildUnclusteredAndProbe(t *testing.T) {
	m := newMgr()
	m.CreateTable("t", schema2())
	m.Load("t", rows(200))
	if err := m.BuildUnclustered("t", "k"); err != nil {
		t.Fatal(err)
	}
	tb := m.MustTable("t")
	ix := tb.Unclustered["k"]
	if ix == nil {
		t.Fatal("index not registered")
	}
	payloads, err := ix.Search(tuple.I64(42))
	if err != nil || len(payloads) != 1 {
		t.Fatalf("probe: %d %v", len(payloads), err)
	}
	rid, err := DecodeRID(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	row, err := tb.Heap.ReadTuple(rid)
	if err != nil || row[0].I != 42 {
		t.Fatalf("fetch via RID: %v %v", row, err)
	}
}

func TestBuildClusteredOrdered(t *testing.T) {
	m := newMgr()
	m.CreateTable("t", schema2())
	// Load in reverse order; clustered index must sort.
	rs := rows(150)
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
	m.Load("t", rs)
	if err := m.BuildClustered("t", "k"); err != nil {
		t.Fatal(err)
	}
	tb := m.MustTable("t")
	if tb.ClusteredKey != "k" {
		t.Error("ClusteredKey")
	}
	var prev int64 = -1
	count := 0
	err := tb.Clustered.Range(tuple.Value{}, tuple.Value{}, func(k tuple.Value, payload []byte) bool {
		if k.I <= prev {
			t.Fatalf("clustered scan out of order: %d after %d", k.I, prev)
		}
		prev = k.I
		// Payload is the full tuple.
		row, _, err := tuple.Decode(payload, 2)
		if err != nil || row[0].I != k.I {
			t.Fatalf("clustered payload: %v %v", row, err)
		}
		count++
		return true
	})
	if err != nil || count != 150 {
		t.Fatalf("clustered scan: %d %v", count, err)
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	m := newMgr()
	m.CreateTable("t", schema2())
	m.Load("t", rows(50))
	m.BuildUnclustered("t", "k")
	if err := m.Insert("t", tuple.Tuple{tuple.I64(999), tuple.Str("new")}); err != nil {
		t.Fatal(err)
	}
	tb := m.MustTable("t")
	n, _ := tb.Heap.Count()
	if n != 51 {
		t.Errorf("heap count after insert: %d", n)
	}
	payloads, _ := tb.Unclustered["k"].Search(tuple.I64(999))
	if len(payloads) != 1 {
		t.Fatalf("index not maintained: %d", len(payloads))
	}
	rid, _ := DecodeRID(payloads[0])
	row, err := tb.Heap.ReadTuple(rid)
	if err != nil || row[1].S != "new" {
		t.Errorf("fetch inserted: %v %v", row, err)
	}
}

func TestSharedDiskAttach(t *testing.T) {
	m1 := newMgr()
	m1.CreateTable("t", schema2())
	m1.Load("t", rows(80))
	m1.BuildClustered("t", "k")
	m1.BuildUnclustered("t", "k")
	m1.Pool.Flush()

	// Second manager (separate pool) over the same disk.
	m2 := NewSharedDisk(m1.Disk, 16)
	tb2, err := m2.AttachTable("t", schema2())
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Clustered == nil {
		t.Fatal("clustered index not attached")
	}
	if err := m2.AttachClusteredKey("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := m2.AttachUnclustered("t", "k"); err != nil {
		t.Fatal(err)
	}
	n, err := tb2.Heap.Count()
	if err != nil || n != 80 {
		t.Fatalf("attached heap count: %d %v", n, err)
	}
	cnt, err := tb2.Clustered.Count()
	if err != nil || cnt != 80 {
		t.Fatalf("attached clustered count: %d %v", cnt, err)
	}
	if err := m2.AttachUnclustered("t", "v"); err == nil {
		t.Error("attach of missing index should fail")
	}
	if _, err := m2.AttachTable("t", schema2()); err == nil {
		t.Error("double attach should fail")
	}
	if _, err := m2.AttachTable("missing", schema2()); err == nil {
		t.Error("attach of missing table should fail")
	}
}

func TestAttachClusteredKeyErrors(t *testing.T) {
	m := newMgr()
	m.CreateTable("t", schema2())
	m.Load("t", rows(10))
	if err := m.AttachClusteredKey("t", "k"); err == nil {
		t.Error("no clustered index: should fail")
	}
	if err := m.AttachClusteredKey("missing", "k"); err == nil {
		t.Error("missing table: should fail")
	}
}

func TestTempNames(t *testing.T) {
	m := newMgr()
	a := m.TempName("sort")
	b := m.TempName("sort")
	if a == b {
		t.Error("temp names must be unique")
	}
	m.Disk.Create(a)
	m.DropTemp(a)
	if m.Disk.Exists(a) {
		t.Error("DropTemp")
	}
}

func TestRIDCodec(t *testing.T) {
	r := heap.RID{Page: 12345, Slot: 67}
	got, err := DecodeRID(EncodeRID(r))
	if err != nil || got != r {
		t.Errorf("RID codec: %v %v", got, err)
	}
	if _, err := DecodeRID([]byte{1, 2}); err == nil {
		t.Error("DecodeRID of garbage should fail")
	}
}
