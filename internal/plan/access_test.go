package plan

import (
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// fakeCatalog: orders has 100 000 rows on 600 heap pages, an unclustered
// index on oid (col 0) and a clustered one on cust (col 1), keys uniform on
// [0, 100 000); customers has no index.
type fakeCatalog struct {
	rows  float64
	asked int // RangeRows calls: the statistics are read only when needed
}

func (c *fakeCatalog) Indexes(table string) []Index {
	if table != "orders" {
		return nil
	}
	return []Index{
		{Col: "cust", Clustered: true, Height: 3, Leaves: 700},
		{Col: "oid", Height: 2, Leaves: 380},
	}
}

func (c *fakeCatalog) HeapPages(string) int64 { return 600 }

func (c *fakeCatalog) RangeRows(_ string, _ int, lo, hi tuple.Value) (float64, float64) {
	c.asked++
	from, to := 0.0, 100000.0
	if lo.IsValid() {
		from = lo.AsFloat()
	}
	if hi.IsValid() {
		to = hi.AsFloat()
	}
	if to < from {
		return 0, c.rows
	}
	return (to - from + 1) / 100000 * c.rows, c.rows
}

func TestChooseAccessPaths(t *testing.T) {
	oid, cust, amount := expr.NamedCol(0, "oid"), expr.NamedCol(1, "cust"), expr.NamedCol(2, "amount")
	cases := []struct {
		name   string
		filter expr.Pred
		want   string // "" keeps the table scan, else col[lo,hi]
	}{
		{"point", expr.EQ(oid, expr.CInt(7)), "oid[7,7]"},
		{"literal on the left", expr.GT(expr.CInt(7), oid), "oid[<invalid>,7]"},
		{"strict bounds read inclusively", expr.AndOf(expr.GT(oid, expr.CInt(10)), expr.LT(oid, expr.CInt(20))), "oid[10,20]"},
		{"tightest bounds win", expr.AndOf(expr.GE(oid, expr.CInt(10)), expr.GE(oid, expr.CInt(15)), expr.LE(oid, expr.CInt(30)), expr.LT(oid, expr.CInt(25))), "oid[15,25]"},
		{"float literal on an INT column rounds inward", expr.AndOf(expr.GT(oid, expr.CFloat(10.5)), expr.LT(oid, expr.CFloat(20.5))), "oid[11,20]"},
		{"whole float literal is exact", expr.EQ(oid, expr.CFloat(12)), "oid[12,12]"},
		{"fractional equality is an empty range", expr.EQ(oid, expr.CFloat(12.5)), "oid[13,12]"},
		{"string literal against a number is left to the filter", expr.EQ(oid, expr.CStr("7")), ""},
		{"<> bounds nothing", expr.NE(oid, expr.CInt(7)), ""},
		{"residual conjunct on another column", expr.AndOf(expr.EQ(oid, expr.CInt(7)), expr.LT(amount, expr.CFloat(5))), "oid[7,7]"},
		{"OR across columns", &expr.Or{Ps: []expr.Pred{expr.EQ(oid, expr.CInt(7)), expr.EQ(cust, expr.CInt(7))}}, ""},
		{"column without index", expr.EQ(amount, expr.CFloat(7)), ""},
		// unclustered: 2 + f·380 + f·100 000 pages against 600.
		{"597 rows: 2 + 2.3 + 597 > 600", expr.AndOf(expr.GE(oid, expr.CInt(1000)), expr.LE(oid, expr.CInt(1596))), ""},
		{"590 rows: 2 + 2.2 + 590 < 600", expr.AndOf(expr.GE(oid, expr.CInt(1000)), expr.LE(oid, expr.CInt(1589))), "oid[1000,1589]"},
		// clustered: 3 + f·700 pages against 600.
		{"clustered, 80 % of the keys", expr.LE(cust, expr.CInt(80000)), "cust[<invalid>,80000]"},
		{"clustered, 90 % of the keys", expr.LE(cust, expr.CInt(90000)), ""},
		{"the cheaper of two usable indexes", expr.AndOf(expr.EQ(oid, expr.CInt(7)), expr.LE(cust, expr.CInt(50000))), "oid[7,7]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := &fakeCatalog{rows: 100000}
			scan := NewTableScan("orders", ordersSchema(), tc.filter, []int{2}, false)
			before := scan.Signature()
			got := ChooseAccessPaths(scan, cat)
			if scan.Signature() != before {
				t.Fatal("the input plan was mutated")
			}
			is, ok := got.(*IndexScan)
			if tc.want == "" {
				if ok {
					t.Fatalf("chose %s, want the table scan", is.Signature())
				}
				if got != Node(scan) {
					t.Fatal("an unchanged scan should be returned as is")
				}
				return
			}
			if !ok {
				t.Fatalf("kept the table scan, want an index scan of %s", tc.want)
			}
			if have := is.Col + "[" + is.Lo.String() + "," + is.Hi.String() + "]"; have != tc.want {
				t.Fatalf("chose %s, want %s", have, tc.want)
			}
			if is.Filter != tc.filter || len(is.Project) != 1 || is.Ordered || is.Clustered != (is.Col == "cust") {
				t.Fatalf("the whole filter and the projection must carry over, unordered: %s", is.Signature())
			}
		})
	}
}

func TestChooseAccessPathsLeavesTheRestAlone(t *testing.T) {
	oid := expr.NamedCol(0, "oid")
	point := expr.EQ(oid, expr.CInt(7))
	cat := &fakeCatalog{rows: 100000}

	// Tables without an index, scans without a filter and ordered scans cost
	// no statistics lookup.
	for _, n := range []Node{
		NewTableScan("customers", customersSchema(), expr.EQ(expr.Col(0), expr.CInt(1)), nil, false),
		NewTableScan("orders", ordersSchema(), nil, nil, false),
		NewTableScan("orders", ordersSchema(), point, nil, true),
		NewTableScan("orders", ordersSchema(), expr.EQ(expr.Col(2), expr.CFloat(1)), nil, false),
	} {
		if got := ChooseAccessPaths(n, cat); got != n {
			t.Errorf("%s was rewritten to %s", n.Signature(), got.Signature())
		}
	}
	if cat.asked != 0 {
		t.Errorf("the statistics were consulted %d times for scans no index can serve", cat.asked)
	}

	// No statistics: no estimate, no switch.
	if got := ChooseAccessPaths(NewTableScan("orders", ordersSchema(), point, nil, false), &fakeCatalog{}); got.Op() != OpTableScan {
		t.Errorf("chose %s without statistics", got.Signature())
	}

	// An explicit index scan is a forced path.
	forced := NewIndexScan("orders", ordersSchema(), "cust", tuple.Value{}, tuple.Value{}, true, true, point, nil)
	if got := ChooseAccessPaths(forced, cat); got != Node(forced) {
		t.Errorf("a forced index scan was rewritten to %s", got.Signature())
	}

	// Under a join and a group-by: the scan is replaced, the nodes above it
	// are copies, the input tree is as it was.
	join := NewHashJoin(
		NewTableScan("customers", customersSchema(), nil, nil, false),
		NewTableScan("orders", ordersSchema(), point, nil, false), 0, 1)
	root := NewGroupBy(join, []int{1}, []expr.AggSpec{{Kind: expr.AggCount}})
	before := root.Signature()
	got := ChooseAccessPaths(root, cat)
	if root.Signature() != before {
		t.Fatal("the input plan was mutated")
	}
	gj, ok := got.(*GroupBy).Child.(*HashJoin)
	if !ok || gj == join || gj.Left != join.Left || gj.Right.Op() != OpIndexScan {
		t.Fatalf("join not rewritten as expected: %s", got.Signature())
	}
	if err := Validate(got); err != nil {
		t.Fatal(err)
	}
}
