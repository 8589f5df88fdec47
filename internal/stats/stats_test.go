package stats

import (
	"math"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

func mkRows(n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			tuple.I64(int64(i)),         // unique
			tuple.I64(int64(i % 7)),     // 7 distinct
			tuple.F64(float64(i % 100)), // 0..99
		}
	}
	return rows
}

func TestTableSnapshot(t *testing.T) {
	tab := NewTable(3)
	tab.Add(mkRows(5000))
	s := tab.Snapshot()
	if s.Rows != 5000 {
		t.Fatalf("rows = %d, want 5000", s.Rows)
	}
	if s.Cols[0].Min.I != 0 || s.Cols[0].Max.I != 4999 {
		t.Fatalf("col0 bounds = %v..%v", s.Cols[0].Min, s.Cols[0].Max)
	}
	// Linear counting should land near the truth at this scale.
	if got := s.Cols[1].NDV; math.Abs(got-7) > 1 {
		t.Fatalf("col1 NDV = %v, want ≈7", got)
	}
	if got := s.Cols[0].NDV; got < 4000 || got > 5000 {
		t.Fatalf("col0 NDV = %v, want ≈5000", got)
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	rows := mkRows(2000)
	inc := NewTable(3)
	for i := 0; i < len(rows); i += 128 {
		end := i + 128
		if end > len(rows) {
			end = len(rows)
		}
		inc.Add(rows[i:end])
	}
	full := NewTable(3)
	for _, r := range rows {
		full.AddRow(r)
	}
	a, b := inc.Snapshot(), full.Snapshot()
	if a.Rows != b.Rows {
		t.Fatalf("row counts differ: %d vs %d", a.Rows, b.Rows)
	}
	for i := range a.Cols {
		if a.Cols[i].NDV != b.Cols[i].NDV || tuple.Compare(a.Cols[i].Min, b.Cols[i].Min) != 0 {
			t.Fatalf("col %d stats differ between incremental and rebuilt", i)
		}
	}
}

func TestSelectivity(t *testing.T) {
	tab := NewTable(3)
	tab.Add(mkRows(1000))
	cols := tab.Snapshot().Cols

	// Equality on a 7-distinct column ≈ 1/7.
	s := Selectivity(expr.EQ(expr.Col(1), expr.CInt(3)), cols)
	if math.Abs(s-1.0/7) > 0.05 {
		t.Fatalf("eq sel = %v, want ≈1/7", s)
	}
	// Range midpoint ≈ 0.5 on the 0..99 column.
	s = Selectivity(expr.LT(expr.Col(2), expr.CFloat(49.5)), cols)
	if math.Abs(s-0.5) > 0.05 {
		t.Fatalf("range sel = %v, want ≈0.5", s)
	}
	// Constant orientation must not matter.
	a := Selectivity(expr.GT(expr.CFloat(49.5), expr.Col(2)), cols)
	b := Selectivity(expr.LT(expr.Col(2), expr.CFloat(49.5)), cols)
	if a != b {
		t.Fatalf("mirrored comparisons disagree: %v vs %v", a, b)
	}
	// No stats → fallback constants, still within [0,1].
	s = Selectivity(expr.EQ(expr.Col(0), expr.CInt(1)), nil)
	if s != DefaultEqSel {
		t.Fatalf("fallback eq sel = %v", s)
	}
}

func TestEstimatorJoin(t *testing.T) {
	orders := NewTable(2) // (cust, amount)
	for i := 0; i < 5000; i++ {
		orders.AddRow(tuple.Tuple{tuple.I64(int64(i % 100)), tuple.F64(float64(i % 997))})
	}
	customers := NewTable(1) // (cid)
	for i := 0; i < 100; i++ {
		customers.AddRow(tuple.Tuple{tuple.I64(int64(i))})
	}
	snap := map[string]*TableStats{
		"orders":    orders.Snapshot(),
		"customers": customers.Snapshot(),
	}
	est := NewEstimator(func(name string) *TableStats { return snap[name] })

	oScan := plan.NewTableScan("orders",
		tuple.NewSchema(tuple.Col("cust", tuple.KindInt), tuple.Col("amount", tuple.KindFloat)), nil, nil, false)
	cScan := plan.NewTableScan("customers",
		tuple.NewSchema(tuple.Col("cid", tuple.KindInt)), nil, nil, false)

	if got := est.Rows(oScan); got != 5000 {
		t.Fatalf("orders scan rows = %d, want 5000", got)
	}
	// Equi-join on a key with ~100 distinct values ≈ 5000·100/100.
	join := plan.NewHashJoin(cScan, oScan, 0, 0)
	if got := est.Rows(join); got < 4000 || got > 6000 {
		t.Fatalf("join rows = %d, want ≈5000", got)
	}
	// A filtered scan shrinks the estimate.
	fScan := plan.NewTableScan("orders",
		tuple.NewSchema(tuple.Col("cust", tuple.KindInt), tuple.Col("amount", tuple.KindFloat)),
		expr.LT(expr.Col(1), expr.CFloat(100)), nil, false)
	got := est.Rows(fScan)
	if got < 300 || got > 800 {
		t.Fatalf("filtered scan rows = %d, want ≈500", got)
	}
	// Unknown tables fall back to the default guess.
	u := plan.NewTableScan("mystery", tuple.NewSchema(tuple.Col("a", tuple.KindInt)), nil, nil, false)
	if got := est.Rows(u); got != DefaultTableRows {
		t.Fatalf("unknown table rows = %d, want %d", got, DefaultTableRows)
	}
}

// TestSnapshotIsMemoized: planning asks for a snapshot per statement, so it
// is built once per change of the table's contents, not once per call.
func TestSnapshotIsMemoized(t *testing.T) {
	tab := NewTable(3)
	tab.Add(mkRows(100))
	s1 := tab.Snapshot()
	if s2 := tab.Snapshot(); s2 != s1 {
		t.Fatal("an unchanged table rebuilt its snapshot")
	}
	tab.Add(nil)
	if s2 := tab.Snapshot(); s2 != s1 {
		t.Fatal("an empty Add invalidated the snapshot")
	}
	tab.Add(mkRows(50))
	s3 := tab.Snapshot()
	if s3 == s1 || s3.Rows != 150 || s1.Rows != 100 {
		t.Fatalf("after Add: rows %d (old snapshot %d), want 150 (100)", s3.Rows, s1.Rows)
	}
	reg := NewRegistry()
	reg.Create("t", 3)
	reg.Add("t", mkRows(10))
	before := reg.Snapshot("t")
	fresh := NewTable(3)
	fresh.Add(mkRows(20))
	reg.Replace("t", fresh)
	if after := reg.Snapshot("t"); after == before || after.Rows != 20 {
		t.Fatalf("after Replace: rows %d, want 20", after.Rows)
	}
	if allocs := testing.AllocsPerRun(100, func() { reg.Snapshot("t") }); allocs != 0 {
		t.Errorf("a memoized snapshot allocates %.0f times", allocs)
	}
}

func TestRangeSelectivity(t *testing.T) {
	tab := NewTable(3)
	tab.Add(mkRows(5000))
	unique := tab.Snapshot().Cols[0] // 0..4999, all distinct
	open := tuple.Value{}
	near := func(got, want float64) bool { return math.Abs(got-want) <= want/10+1e-9 }
	for _, tc := range []struct {
		name   string
		lo, hi tuple.Value
		want   float64
	}{
		{"point", tuple.I64(7), tuple.I64(7), 1.0 / 5000},
		{"narrow range in the middle of the domain", tuple.I64(2500), tuple.I64(2520), 20.0 / 5000},
		{"half open", tuple.I64(4000), open, 0.2},
		{"half open below", open, tuple.I64(1000), 0.2},
		{"both open", open, open, 1},
		{"empty", tuple.I64(9), tuple.I64(3), 0},
		{"beyond the maximum: one value's share", tuple.I64(9000), tuple.I64(9500), 1.0 / 5000},
		{"float bounds on an int column", tuple.F64(99.5), tuple.F64(200.5), 101.0 / 5000},
	} {
		if got := RangeSelectivity(unique, tc.lo, tc.hi); !near(got, tc.want) {
			t.Errorf("%s: %v, want ≈ %v", tc.name, got, tc.want)
		}
	}
	// No statistics, or a string column: the fallback constants.
	if got := RangeSelectivity(ColStats{}, tuple.I64(1), tuple.I64(5)); got != DefaultRangeSel*DefaultRangeSel {
		t.Errorf("unknown column, closed range: %v", got)
	}
	if got := RangeSelectivity(ColStats{}, tuple.I64(1), open); got != DefaultRangeSel {
		t.Errorf("unknown column, half open: %v", got)
	}
}
