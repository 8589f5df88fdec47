package plan

import (
	"slices"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// The benchmark's shapes: orders(oid, cust, region, priority, amount) and
// customers(cid, segment, balance).
func pruneOrders() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("oid", tuple.KindInt), tuple.Col("cust", tuple.KindInt), tuple.Col("region", tuple.KindInt),
		tuple.Col("priority", tuple.KindInt), tuple.Col("amount", tuple.KindFloat))
}

func pruneCustomers() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("cid", tuple.KindInt), tuple.Col("segment", tuple.KindInt), tuple.Col("balance", tuple.KindFloat))
}

// selectCols is the builder's Select: bare column references under the
// given output names (the columns' own when names is nil), kinds resolved.
func selectCols(child Node, names []string, cols ...int) *Project {
	exprs := make([]expr.Expr, len(cols))
	own := make([]string, len(cols))
	for i, c := range cols {
		exprs[i], own[i] = expr.Col(c), child.Schema().Cols[c].Name
	}
	if names == nil {
		names = own
	}
	p := NewProject(child, exprs, names)
	for i, c := range cols {
		p.Schema().Cols[i].Kind = child.Schema().Cols[c].Kind
	}
	return p
}

func sum(col int) expr.AggSpec { return expr.AggSpec{Kind: expr.AggSum, Arg: expr.Col(col)} }

var countStar = expr.AggSpec{Kind: expr.AggCount}

func TestPruneColumns(t *testing.T) {
	orders := func(filter expr.Pred) *TableScan { return NewTableScan("orders", pruneOrders(), filter, nil, false) }
	customers := func() *TableScan { return NewTableScan("customers", pruneCustomers(), nil, nil, false) }
	cheap := expr.LT(expr.Col(4), expr.CFloat(500)) // amount < 500, in table-column terms
	cases := []struct {
		name string
		in   Node
		want string // the pruned plan's signature
	}{
		{"aggregate: the argument's column, re-based; the scan filter stays in table terms",
			NewAggregate(orders(cheap), []expr.AggSpec{sum(4), countStar}),
			"agg(sum(c0),count(*);tscan(orders;(c4<k2:500);[4];false))"},
		{"count(*) alone reads no column: an empty list, which is not nil's signature",
			NewAggregate(orders(nil), []expr.AggSpec{countStar}),
			"agg(count(*);tscan(orders;true;[none];false))"},
		{"group by: keys and arguments",
			NewGroupBy(orders(nil), []int{2}, []expr.AggSpec{countStar, {Kind: expr.AggAvg, Arg: expr.Col(4)}}),
			"groupby([0];count(*),avg(c1);tscan(orders;true;[2 4];false))"},
		{"the list is ascending whatever the select-list order, and the Project that reorders stays",
			selectCols(orders(nil), nil, 4, 0, 2),
			"project(c2,c0,c1;tscan(orders;true;[0 2 4];false))"},
		{"a column named twice is produced once",
			selectCols(orders(nil), []string{"a", "b"}, 4, 4),
			"project(c0,c0;tscan(orders;true;[4];false))"},
		{"a Project that became the identity is dropped",
			selectCols(orders(cheap), nil, 0, 4),
			"tscan(orders;(c4<k2:500);[0 4];false)"},
		{"but not under another name (SELECT oid AS x)",
			selectCols(orders(nil), []string{"x"}, 0),
			"project(c0;tscan(orders;true;[0];false))"},
		{"nor when it computes",
			NewProject(orders(nil), []expr.Expr{expr.Mul(expr.Col(4), expr.CFloat(2))}, []string{"amount"}),
			"project((c0*k2:2);tscan(orders;true;[4];false))"},
		{"sort keys that are not in the output survive below the Project",
			selectCols(NewSort(orders(nil), []int{4, 0}, true), nil, 1),
			"project(c1;sort([2 0];true;tscan(orders;true;[0 1 4];false)))"},
		{"a root Sort exposed by a dropped Project",
			selectCols(NewSort(orders(nil), []int{4}, false), nil, 0, 4),
			"sort([1];false;tscan(orders;true;[0 4];false))"},
		{"hash join: the keys survive on both sides and what is above is re-based",
			NewGroupBy(NewHashJoin(customers(), orders(nil), 0, 1), []int{1}, []expr.AggSpec{sum(7)}),
			"groupby([1];sum(c3);hjoin(0=0;tscan(customers;true;[0 1];false)|tscan(orders;true;[1 4];false)))"},
		{"merge join under an aggregate reads only its keys",
			NewAggregate(NewMergeJoin(NewSort(customers(), []int{0}, false), NewSort(orders(nil), []int{1}, false), 0, 1, false), []expr.AggSpec{countStar}),
			"agg(count(*);mjoin(0=0;sort([0];false;tscan(customers;true;[0];false))|sort([0];false;tscan(orders;true;[1];false))))"},
		{"nested-loop join: the predicate's columns, re-based across the seam",
			NewAggregate(NewNLJoin(customers(), orders(nil), expr.LT(expr.Col(2), expr.Col(7))), []expr.AggSpec{sum(3)}),
			"agg(sum(c1);nljoin((c0<c2);tscan(customers;true;[2];false)|tscan(orders;true;[0 4];false)))"},
		{"a residual Filter adds its columns and passes the narrowing up",
			NewAggregate(NewFilter(NewHashJoin(customers(), orders(nil), 0, 1), expr.LT(expr.Col(2), expr.Col(7))), []expr.AggSpec{countStar}),
			"agg(count(*);filter((c1<c3);hjoin(0=0;tscan(customers;true;[0 2];false)|tscan(orders;true;[1 4];false))))"},
		{"three-way join",
			NewAggregate(NewHashJoin(NewHashJoin(customers(), orders(nil), 0, 1), customers(), 5, 0), []expr.AggSpec{sum(10)}),
			"agg(sum(c4);hjoin(2=0;hjoin(0=0;tscan(customers;true;[0];false)|tscan(orders;true;[1 2];false))|tscan(customers;true;[0 2];false)))"},
		{"index scan",
			NewAggregate(NewIndexScan("orders", pruneOrders(), "oid", tuple.I64(7), tuple.I64(9), false, false, nil, nil), []expr.AggSpec{sum(4)}),
			"agg(sum(c0);iscan(orders;oid;7;9;false;false;true;[4];0:-1))"},
		{"a scan that projects already is narrowed through its own list",
			NewAggregate(NewTableScan("orders", pruneOrders(), nil, []int{4, 0, 2}, false), []expr.AggSpec{sum(2), sum(0)}),
			"agg(sum(c1),sum(c0);tscan(orders;true;[4 2];false))"},
	}
	for _, tc := range cases {
		before := tc.in.Signature()
		got := PruneColumns(tc.in)
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
		if again := PruneColumns(got); again != got {
			t.Errorf("%s: not idempotent: %s", tc.name, again.Signature())
		}
		if n := Normalize(got); n.Signature() != tc.want {
			t.Errorf("%s: Normalize moves the pruned plan:\n%s", tc.name, n.Signature())
		}
	}
}

// A plan that reads every column of every scan is returned as it is: same
// nodes, nil projections, the parent commit's signature.
func TestPruneColumnsKeepsFullWidthPlans(t *testing.T) {
	scan := NewTableScan("customers", pruneCustomers(), expr.EQ(expr.Col(1), expr.CInt(1)), nil, false)
	for _, p := range []Node{
		scan, // SELECT *
		NewSort(scan, []int{2}, true),
		selectCols(scan, nil, 2, 1, 0), // every column, reordered
		selectCols(scan, nil, 0, 1, 2), // the identity as written: nothing was pruned under it
		NewUpdate("customers", nil),
	} {
		if got := PruneColumns(p); got != p {
			t.Errorf("%s became %s", p.Signature(), got.Signature())
		}
	}
	if scan.Project != nil {
		t.Fatal("projection set on a full-width scan")
	}
}

// The pass re-normalizes what it re-bases: a commutative operand order that
// followed the old column numbers follows the new ones.
func TestPruneColumnsRenormalizes(t *testing.T) {
	wide := make([]tuple.Column, 12)
	for i := range wide {
		wide[i] = tuple.Col("c"+string(rune('a'+i)), tuple.KindInt)
	}
	scan := NewTableScan("w", tuple.NewSchema(wide...), nil, nil, false)
	// "c10" sorts before "c9" as a string; after pruning they are c1 and c0.
	p := Normalize(NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Add(expr.Col(9), expr.Col(10))}}))
	got := PruneColumns(p)
	if want := "agg(sum((c0+c1));tscan(w;true;[9 10];false))"; got.Signature() != want {
		t.Fatalf("got %s\nwant %s", got.Signature(), want)
	}
	if n := Normalize(got); n.Signature() != got.Signature() {
		t.Fatalf("Normalize moves the pruned plan: %s", n.Signature())
	}
}
