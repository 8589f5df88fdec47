package plan

import (
	"slices"
	"strings"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

func ordersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("oid", tuple.KindInt),
		tuple.Col("cust", tuple.KindInt),
		tuple.Col("amount", tuple.KindFloat),
	)
}

func customersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("cid", tuple.KindInt),
		tuple.Col("segment", tuple.KindInt),
	)
}

func TestNormalizePushesFilterIntoScan(t *testing.T) {
	scan := NewTableScan("orders", ordersSchema(), nil, nil, false)
	p := NewFilter(scan, expr.GT(expr.Col(2), expr.CFloat(100)))
	n := Normalize(p)
	ts, ok := n.(*TableScan)
	if !ok {
		t.Fatalf("expected filter merged into TableScan, got %T", n)
	}
	if ts.Filter == nil {
		t.Fatal("scan filter not set")
	}
	// Converges with the filter written directly on the scan.
	direct := Normalize(NewTableScan("orders", ordersSchema(),
		expr.LT(expr.CFloat(100), expr.Col(2)), nil, false))
	if n.Signature() != direct.Signature() {
		t.Fatalf("pushed and direct filters differ:\n%s\n%s", n.Signature(), direct.Signature())
	}
	// Original tree untouched.
	if scan.Filter != nil {
		t.Fatal("Normalize mutated the input scan")
	}
}

func TestNormalizePushesIntoProjectedScan(t *testing.T) {
	scan := NewTableScan("orders", ordersSchema(), nil, []int{2, 0}, false)
	p := NewFilter(scan, expr.GT(expr.Col(0), expr.CFloat(100))) // col 0 = amount post-project
	n := Normalize(p)
	ts, ok := n.(*TableScan)
	if !ok {
		t.Fatalf("filter over a projecting scan must merge into it, got %T", n)
	}
	// The scan applies Filter before Project: the predicate is re-based from
	// output column 0 to table column 2.
	if got := ts.Filter.Signature(); got != "(c2>k2:100)" {
		t.Fatalf("scan filter = %s, want (c2>k2:100)", got)
	}
	if !slices.Equal(ts.Project, []int{2, 0}) || scan.Filter != nil {
		t.Fatalf("projection changed (%v) or input mutated (%v)", ts.Project, scan.Filter)
	}
	// The same through an index scan, merged with the filter already there.
	is := NewIndexScan("orders", ordersSchema(), "oid", tuple.Value{}, tuple.Value{}, true, true,
		expr.LT(expr.Col(0), expr.CInt(50)), []int{2, 0})
	n = Normalize(NewFilter(is, expr.GT(expr.Col(0), expr.CFloat(100))))
	if got, ok := n.(*IndexScan); !ok || got.Filter.Signature() != "and((c0<k1:50),(c2>k2:100))" {
		t.Fatalf("index scan: %s", n.Signature())
	}
}

func TestNormalizePushesThroughBareProject(t *testing.T) {
	scan := NewTableScan("orders", ordersSchema(), nil, nil, false)
	// SELECT amount, oid ... WHERE amount > 100, the filter written above the
	// projection: it passes through, re-based, and lands in the scan.
	proj := NewProject(scan, []expr.Expr{expr.Col(2), expr.Col(0)}, []string{"amount", "oid"})
	n := Normalize(NewFilter(proj, expr.GT(expr.Col(0), expr.CFloat(100))))
	below := Normalize(NewProject(NewFilter(scan, expr.GT(expr.Col(2), expr.CFloat(100))),
		[]expr.Expr{expr.Col(2), expr.Col(0)}, []string{"amount", "oid"}))
	if n.Signature() != below.Signature() {
		t.Fatalf("filter above and below a bare projection differ:\n%s\n%s", n.Signature(), below.Signature())
	}
	if again := Normalize(n); again.Signature() != n.Signature() {
		t.Fatalf("not idempotent:\n%s\n%s", n.Signature(), again.Signature())
	}
	// A computed column stops it: the predicate reads a value no column below holds.
	calc := NewProject(scan, []expr.Expr{expr.Mul(expr.Col(2), expr.CFloat(2))}, []string{"twice"})
	if _, ok := Normalize(NewFilter(calc, expr.GT(expr.Col(0), expr.CFloat(100)))).(*Filter); !ok {
		t.Fatal("filter over a computing projection must stay above it")
	}
}

func TestNormalizeSplitsFilterOverJoin(t *testing.T) {
	c := NewTableScan("customers", customersSchema(), nil, nil, false)
	o := NewTableScan("orders", ordersSchema(), nil, nil, false)
	join := NewHashJoin(c, o, 0, 1) // cid = cust
	// segment=1 (left col 1), amount>900 (right col 2 → join col 4).
	pred := expr.AndOf(
		expr.EQ(expr.Col(1), expr.CInt(1)),
		expr.GT(expr.Col(4), expr.CFloat(900)),
	)
	n := Normalize(NewFilter(join, pred))
	j, ok := n.(*HashJoin)
	if !ok {
		t.Fatalf("expected bare HashJoin after full pushdown, got %T", n)
	}
	ls, ok := j.Left.(*TableScan)
	if !ok || ls.Filter == nil {
		t.Fatal("left conjunct not pushed into build-side scan")
	}
	rs, ok := j.Right.(*TableScan)
	if !ok || rs.Filter == nil {
		t.Fatal("right conjunct not pushed into probe-side scan")
	}
	// The right-side predicate must be re-based: amount is col 2 of orders.
	want := expr.NormalizePred(expr.GT(expr.Col(2), expr.CFloat(900))).Signature()
	if rs.Filter.Signature() != want {
		t.Fatalf("right filter = %s, want %s", rs.Filter.Signature(), want)
	}
	if n.Schema().Len() != join.Schema().Len() {
		t.Fatal("normalization changed the output schema")
	}
}

func TestNormalizeKeepsCrossSideResidual(t *testing.T) {
	c := NewTableScan("customers", customersSchema(), nil, nil, false)
	o := NewTableScan("orders", ordersSchema(), nil, nil, false)
	join := NewHashJoin(c, o, 0, 1)
	// cid < oid spans both sides: must stay above the join.
	pred := expr.LT(expr.Col(0), expr.Col(2))
	n := Normalize(NewFilter(join, pred))
	if _, ok := n.(*Filter); !ok {
		t.Fatalf("cross-side predicate must remain a Filter, got %T", n)
	}
}

func TestNormalizeCollapsesFilterChains(t *testing.T) {
	scan := NewTableScan("orders", ordersSchema(), nil, nil, false)
	chain := NewFilter(NewFilter(scan, expr.GT(expr.Col(2), expr.CFloat(10))),
		expr.LT(expr.Col(2), expr.CFloat(90)))
	merged := NewFilter(scan, expr.AndOf(
		expr.LT(expr.Col(2), expr.CFloat(90)), expr.GT(expr.Col(2), expr.CFloat(10))))
	if Normalize(chain).Signature() != Normalize(merged).Signature() {
		t.Fatal("chained and merged filters should converge")
	}
}

func TestNormalizeIdempotentOnPlans(t *testing.T) {
	c := NewTableScan("customers", customersSchema(), nil, nil, false)
	o := NewTableScan("orders", ordersSchema(), nil, nil, false)
	root := NewSort(NewFilter(NewHashJoin(c, o, 0, 1), expr.AndOf(
		expr.EQ(expr.Col(1), expr.CInt(1)),
		expr.LT(expr.Col(0), expr.Col(2)),
	)), []int{0}, true)
	once := Normalize(root)
	twice := Normalize(once)
	if once.Signature() != twice.Signature() {
		t.Fatalf("not idempotent:\n%s\n%s", once.Signature(), twice.Signature())
	}
}

func TestNormalizeValidates(t *testing.T) {
	// Normalized plans must still pass plan.Validate (refs stay in range
	// after pushdown re-basing).
	c := NewTableScan("customers", customersSchema(), nil, nil, false)
	o := NewTableScan("orders", ordersSchema(), nil, nil, false)
	root := NewGroupBy(NewFilter(NewHashJoin(c, o, 0, 1), expr.AndOf(
		expr.GT(expr.Col(4), expr.CFloat(10)),
		expr.EQ(expr.Col(1), expr.CInt(2)),
	)), []int{1}, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(4), Name: "rev"}})
	n := Normalize(root)
	if err := Validate(n); err != nil {
		t.Fatalf("normalized plan fails validation: %v", err)
	}
}

// A Top-N is not a Sort a filter commutes with, its n is part of what it
// computes, and only a root Sort that can hold n rows becomes one.
func TestTopN(t *testing.T) {
	scan := NewTableScan("orders", ordersSchema(), nil, nil, false)
	sorted := NewSort(scan, []int{2, 0}, true)
	top, ok := WithTopN(sorted, 10)
	if !ok || top.(*Sort).Limit != 10 || sorted.Limit != 0 {
		t.Fatalf("WithTopN(sort, 10) = %v, %v; the input has Limit %d", top, ok, sorted.Limit)
	}
	if got, want := top.Signature(), "sort([2 0];true;top=10;"+scan.Signature()+")"; got != want {
		t.Fatalf("signature %s, want %s", got, want)
	}
	other, _ := WithTopN(sorted, 11)
	if top.Signature() == other.Signature() || top.Signature() == sorted.Signature() {
		t.Fatal("sorts that differ in n share a signature")
	}
	if got := Explain(top); !strings.Contains(got, "Sort keys=[2 0] desc top=10") {
		t.Fatalf("EXPLAIN does not show the Top-N:\n%s", got)
	}
	if err := Validate(top); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		n     Node
		limit int64
	}{
		"no limit":                  {sorted, -1},
		"LIMIT 0":                   {sorted, 0},
		"n above one run":           {sorted, SortRunSize + 1},
		"LIMIT without ORDER BY":    {scan, 10},
		"ORDER BY under a join":     {NewHashJoin(sorted, scan, 0, 0), 10},
		"ORDER BY under a filter":   {NewFilter(sorted, expr.True{}), 10},
		"a Sort that has its limit": {top, 5},
	} {
		if got, ok := WithTopN(tc.n, tc.limit); ok || got != tc.n {
			t.Errorf("%s: WithTopN changed the plan to %s", name, got.Signature())
		}
	}
	if _, ok := WithTopN(sorted, SortRunSize); !ok {
		t.Error("n = SortRunSize is refused")
	}

	// The first n rows that pass a filter are not the rows of the first n
	// that pass it: the filter stays above a Top-N, and goes below a Sort.
	pred := expr.GT(expr.Col(2), expr.CFloat(100))
	above := Normalize(NewFilter(top, pred))
	f, isFilter := above.(*Filter)
	if !isFilter {
		t.Fatalf("the filter was pushed below the Top-N: %s", above.Signature())
	}
	if s, ok := f.Child.(*Sort); !ok || s.Limit != 10 || s.Child.(*TableScan).Filter != nil {
		t.Fatalf("the Top-N under the filter changed: %s", above.Signature())
	}
	if Normalize(above).Signature() != above.Signature() {
		t.Fatal("Normalize is not idempotent on a filtered Top-N")
	}
	if _, isSort := Normalize(NewFilter(sorted, pred)).(*Sort); !isSort {
		t.Fatal("the filter no longer commutes with a plain Sort")
	}
}
