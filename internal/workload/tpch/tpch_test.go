package tpch

import (
	"math/rand"
	"testing"
	"time"

	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

func loadTiny(t *testing.T, withClustered bool) (*sm.Manager, *DB) {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{}, PoolPages: 64})
	db, err := Load(mgr, 0.0005, 3, withClustered)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, db
}

func TestLoadCardinalities(t *testing.T) {
	mgr, db := loadTiny(t, false)
	counts := map[string]int64{}
	for _, name := range mgr.Tables() {
		n, err := mgr.MustTable(name).Heap.Count()
		if err != nil {
			t.Fatal(err)
		}
		counts[name] = n
	}
	if counts["REGION"] != 5 || counts["NATION"] != 25 {
		t.Fatalf("region/nation: %v", counts)
	}
	if counts["ORDERS"] != int64(db.Orders) {
		t.Fatalf("orders: %d vs %d", counts["ORDERS"], db.Orders)
	}
	if counts["LINEITEM"] != int64(db.Lineitems) {
		t.Fatalf("lineitem: %d vs %d", counts["LINEITEM"], db.Lineitems)
	}
	// TPC-H invariant: 1-7 lineitems per order, average ~4.
	if counts["LINEITEM"] < counts["ORDERS"] || counts["LINEITEM"] > 7*counts["ORDERS"] {
		t.Fatalf("lineitem/order ratio: %d/%d", counts["LINEITEM"], counts["ORDERS"])
	}
	if counts["PARTSUPP"] != 4*counts["PART"] {
		t.Fatalf("partsupp: %d vs 4x%d", counts["PARTSUPP"], counts["PART"])
	}
}

func TestLoadDeterministic(t *testing.T) {
	collect := func() []tuple.Tuple {
		mgr := sm.New(sm.Config{Disk: disk.Config{}, PoolPages: 32})
		if _, err := Load(mgr, 0.0005, 3, false); err != nil {
			t.Fatal(err)
		}
		var rows []tuple.Tuple
		mgr.MustTable("LINEITEM").Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
			rows = append(rows, row)
			return len(rows) < 50
		})
		return rows
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if tuple.CompareAt(a[i], b[i], []int{0, 1, 4, 10}) != 0 {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForeignKeysInRange(t *testing.T) {
	mgr, db := loadTiny(t, false)
	err := mgr.MustTable("LINEITEM").Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
		ok := row[0].I
		if ok < 1 || ok > int64(db.Orders) {
			t.Fatalf("l_orderkey out of range: %d", ok)
		}
		pk := row[1].I
		if pk < 1 || pk > int64(db.Parts) {
			t.Fatalf("l_partkey out of range: %d", pk)
		}
		// Date sanity: receipt after ship.
		if row[12].I <= row[10].I {
			t.Fatalf("receiptdate %d <= shipdate %d", row[12].I, row[10].I)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.MustTable("ORDERS").Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
		ck := row[1].I
		if ck < 1 || ck > int64(db.Customers) {
			t.Fatalf("o_custkey out of range: %d", ck)
		}
		if row[4].I < StartDate || row[4].I > EndDate {
			t.Fatalf("o_orderdate out of range: %d", row[4].I)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusteredIndexesBuilt(t *testing.T) {
	mgr, _ := loadTiny(t, true)
	for _, tb := range []string{"ORDERS", "LINEITEM"} {
		tbl := mgr.MustTable(tb)
		if tbl.Clustered == nil {
			t.Fatalf("%s: no clustered index", tb)
		}
		hc, _ := tbl.Heap.Count()
		cc, err := tbl.Clustered.Count()
		if err != nil || cc != hc {
			t.Fatalf("%s: clustered %d vs heap %d (%v)", tb, cc, hc, err)
		}
	}
}

func TestAttachSharedDisk(t *testing.T) {
	mgr, _ := loadTiny(t, true)
	m2 := sm.NewSharedDisk(mgr.Disk, 32)
	if err := Attach(m2, true); err != nil {
		t.Fatal(err)
	}
	n1, _ := mgr.MustTable("ORDERS").Heap.Count()
	n2, _ := m2.MustTable("ORDERS").Heap.Count()
	if n1 != n2 {
		t.Fatalf("attached counts differ: %d vs %d", n1, n2)
	}
	if m2.MustTable("LINEITEM").ClusteredKey != "l_orderkey" {
		t.Fatal("clustered key not attached")
	}
}

func TestAllQueriesBuild(t *testing.T) {
	p := DefaultParams()
	for _, qn := range MixQueries {
		node := Query(qn, p)
		if node == nil {
			t.Fatalf("Q%d nil", qn)
		}
		if plan.CountNodes(node) < 2 {
			t.Fatalf("Q%d suspiciously small plan", qn)
		}
		// Signatures must be stable for identical parameters (OSP relies
		// on this).
		if node.Signature() != Query(qn, p).Signature() {
			t.Fatalf("Q%d: unstable signature", qn)
		}
	}
	if Q4MergeJoin(p).Signature() == Q4HashJoin(p).Signature() {
		t.Fatal("Q4 variants must differ")
	}
}

func TestQueryPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown query number should panic")
		}
	}()
	Query(2, DefaultParams())
}

func TestRandomParamsVary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p1 := RandomParams(rng)
	p2 := RandomParams(rng)
	if p1 == p2 {
		t.Fatal("consecutive random params identical")
	}
	// Randomized instances of the same query should (usually) have
	// different signatures — that's the qgen behaviour §5.3 relies on.
	s1 := Q6(p1).Signature()
	s2 := Q6(p2).Signature()
	if s1 == s2 {
		t.Fatal("qgen produced identical Q6 signatures")
	}
}

func TestRandomMixQueryCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		qn, node := RandomMixQuery(rng)
		if node == nil {
			t.Fatal("nil plan")
		}
		seen[qn] = true
	}
	for _, qn := range MixQueries {
		if !seen[qn] {
			t.Errorf("Q%d never drawn", qn)
		}
	}
}

func TestDays(t *testing.T) {
	if Days(1970, time.January, 1) != 0 {
		t.Fatal("epoch")
	}
	if Days(1970, time.January, 2) != 1 {
		t.Fatal("epoch+1")
	}
	if EndDate-StartDate < 2500 || EndDate-StartDate > 2600 {
		t.Fatalf("population range: %d days", EndDate-StartDate)
	}
}

func TestMonthHelpers(t *testing.T) {
	if monthStart(0) != Days(1993, time.January, 1) {
		t.Fatal("monthStart(0)")
	}
	if monthStart(13) != Days(1994, time.February, 1) {
		t.Fatal("monthStart(13)")
	}
	if addMonths(11, 3) != Days(1994, time.March, 1) {
		t.Fatal("addMonths wrap")
	}
}
