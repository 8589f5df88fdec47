package plan

import (
	"slices"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// fakeRows prices a plan by table size alone: a scan is its table's rows (a
// tenth of them under a filter), an equi-join its larger input (the key is
// unique on the smaller side), a nested-loop join the product of its inputs,
// a Filter a tenth of its input, anything else its first input.
func fakeRows(sizes map[string]float64) func(Node) float64 {
	var rows func(Node) float64
	rows = func(n Node) float64 {
		switch x := n.(type) {
		case *TableScan:
			if x.Filter != nil {
				return sizes[x.Table] / 10
			}
			return sizes[x.Table]
		case *HashJoin:
			return max(rows(x.Left), rows(x.Right))
		case *NLJoin:
			return rows(x.Left) * rows(x.Right)
		case *Filter:
			return rows(x.Child) / 10
		}
		if kids := n.Children(); len(kids) > 0 {
			return rows(kids[0])
		}
		return 1
	}
	return rows
}

func TestReorderJoins(t *testing.T) {
	orders := NewTableScan("orders", pruneOrders(), nil, nil, false)
	customers := NewTableScan("customers", pruneCustomers(), nil, nil, false)
	kv := tuple.NewSchema(tuple.Col("k", tuple.KindInt), tuple.Col("v", tuple.KindInt))
	a, b, c := NewTableScan("a", kv, nil, nil, false), NewTableScan("b", kv, nil, nil, false), NewTableScan("c", kv, nil, nil, false)
	rows := fakeRows(map[string]float64{"orders": 1000, "customers": 100, "a": 1000, "b": 10, "c": 100})
	// Written orders first: orders(oid, cust, region, priority, amount) at
	// 0..4, customers(cid, segment, balance) at 5..7.
	written := NewHashJoin(orders, customers, 1, 0)
	cases := []struct {
		name string
		in   Node
		want string // the signature of the result; "" = the input, untouched
	}{
		{"2-way swap: the smaller side builds, the GroupBy above is re-based",
			NewGroupBy(written, []int{6}, []expr.AggSpec{sum(4)}),
			"groupby([1];sum(c7);hjoin(0=1;tscan(customers;true;[];false)|tscan(orders;true;[];false)))"},
		{"2-way swap under a Project and a Sort",
			selectCols(NewSort(written, []int{4, 0}, true), nil, 6, 4),
			"project(c1,c7;sort([7 3];true;hjoin(0=1;tscan(customers;true;[];false)|tscan(orders;true;[];false))))"},
		{"a cross-side filter moves with its columns",
			NewAggregate(NewFilter(written, expr.LT(expr.Col(7), expr.Col(4))), []expr.AggSpec{countStar}),
			"agg(count(*);filter((c2<c7);hjoin(0=1;tscan(customers;true;[];false)|tscan(orders;true;[];false))))"},
		{"a nested-loop join keeps its predicate",
			NewAggregate(NewNLJoin(orders, customers, expr.LT(expr.Col(4), expr.Col(7))), []expr.AggSpec{sum(4)}),
			"agg(sum(c7);nljoin((c2>c7);tscan(customers;true;[];false)|tscan(orders;true;[];false)))"},
		{"3-way chain a-b-c: the smallest first, then its cheaper neighbour",
			NewAggregate(NewHashJoin(NewHashJoin(a, b, 1, 0), c, 3, 0), []expr.AggSpec{sum(0), sum(5)}),
			"agg(sum(c4),sum(c3);hjoin(0=1;hjoin(1=0;tscan(b;true;[];false)|tscan(c;true;[];false))|tscan(a;true;[];false)))"},
		{"self-join: a tie on rows and table keeps the written order",
			NewAggregate(NewHashJoin(b, b, 1, 0), []expr.AggSpec{sum(3)}),
			"agg(sum(c3);hjoin(1=0;tscan(b;true;[];false)|tscan(b;true;[];false)))"},
		{"a SELECT *-shaped root is left as written",
			written, ""},
		{"a tree with a Sort leaf is left as written",
			NewAggregate(NewHashJoin(orders, NewSort(customers, []int{0}, false), 1, 0), []expr.AggSpec{sum(4)}), ""},
	}
	for _, tc := range cases {
		before := tc.in.Signature()
		got := ReorderJoins(tc.in, rows)
		if tc.want == "" {
			if got != tc.in {
				t.Errorf("%s: rewritten to %s", tc.name, got.Signature())
			}
			continue
		}
		if got.Signature() != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got.Signature(), tc.want)
			continue
		}
		if tc.in.Signature() != before {
			t.Errorf("%s: the input was mutated: %s", tc.name, tc.in.Signature())
		}
		if err := Validate(got); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got.Schema().Cols, tc.in.Schema().Cols) {
			t.Errorf("%s: root schema %v, was %v", tc.name, got.Schema(), tc.in.Schema())
		}
		if again := ReorderJoins(got, rows); again.Signature() != tc.want {
			t.Errorf("%s: not idempotent: %s", tc.name, again.Signature())
		}
		if n := Normalize(got); n.Signature() != tc.want {
			t.Errorf("%s: Normalize moves the reordered plan:\n%s", tc.name, n.Signature())
		}
	}
}
