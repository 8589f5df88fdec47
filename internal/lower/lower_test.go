package lower

import (
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/stats"
	"qpipe/internal/tuple"
	"qpipe/sql"
)

// fakeCatalog holds the orders/customers pair the SQL tests share, with the
// statistics their rows give, and no index: no database is opened.
type fakeCatalog struct {
	schemas map[string]*tuple.Schema
	stats   *stats.Registry
}

func (c *fakeCatalog) Indexes(string) []plan.Index { return nil }

func (c *fakeCatalog) HeapPages(string) int64 { return 1 }

func (c *fakeCatalog) RangeRows(table string, col int, lo, hi tuple.Value) (float64, float64) {
	return c.stats.Snapshot(table).RangeRows(col, lo, hi)
}

func (c *fakeCatalog) Schema(table string) (*tuple.Schema, error) {
	if s, ok := c.schemas[table]; ok {
		return s, nil
	}
	return nil, &UnknownTableError{Table: table}
}

func (c *fakeCatalog) Stats(table string) *stats.TableStats { return c.stats.Snapshot(table) }

func testCatalog() *fakeCatalog {
	c := &fakeCatalog{schemas: map[string]*tuple.Schema{
		"customers": tuple.NewSchema(tuple.Col("cid", tuple.KindInt), tuple.Col("name", tuple.KindString),
			tuple.Col("segment", tuple.KindInt)),
		"orders": tuple.NewSchema(tuple.Col("oid", tuple.KindInt), tuple.Col("cust", tuple.KindInt),
			tuple.Col("region", tuple.KindInt), tuple.Col("amount", tuple.KindFloat),
			tuple.Col("placed", tuple.KindDate)),
	}, stats: stats.NewRegistry()}
	rows := map[string][]tuple.Tuple{
		"customers": {
			{tuple.I64(1), tuple.Str("acme"), tuple.I64(0)},
			{tuple.I64(2), tuple.Str("bolt"), tuple.I64(1)},
			{tuple.I64(3), tuple.Str("coil"), tuple.I64(0)},
		},
		"orders": {
			{tuple.I64(10), tuple.I64(1), tuple.I64(0), tuple.F64(25), tuple.Date(19727)},
			{tuple.I64(11), tuple.I64(1), tuple.I64(1), tuple.F64(75), tuple.Date(19763)},
			{tuple.I64(12), tuple.I64(2), tuple.I64(0), tuple.F64(50), tuple.Date(19797)},
			{tuple.I64(13), tuple.I64(3), tuple.I64(1), tuple.F64(10), tuple.Date(19833)},
			{tuple.I64(14), tuple.I64(3), tuple.I64(0), tuple.F64(40), tuple.Date(19868)},
		},
	}
	for name, rs := range rows {
		c.stats.Create(name, c.schemas[name].Len())
		c.stats.Add(name, rs)
	}
	return c
}

// parse parses one statement of the kind the test expects.
func parse[S sql.Statement](t *testing.T, text string) S {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	s, ok := stmt.(S)
	if !ok {
		t.Fatalf("Parse(%q) = %T", text, stmt)
	}
	return s
}

// TestSQLMatchesBuilder is the core lowering guarantee: a SQL statement
// compiles to the exact plan (same Explain rendering AND same signature, so
// OSP shares across the two front ends) that the equivalent builder chain
// produces.
func TestSQLMatchesBuilder(t *testing.T) {
	cat := testCatalog()
	scan := func(table string) Query { return Scan(cat, table) }
	cases := []struct {
		name    string
		sqlText string
		builder func() Query
	}{
		{"scan", "SELECT * FROM orders", func() Query {
			return scan("orders")
		}},
		{"filter-project", "SELECT oid, amount * 1.1 AS gross FROM orders WHERE amount > 30", func() Query {
			return scan("orders").
				Filter(Col("amount").Gt(Int(30))).
				Project(Col("oid"), Col("amount").Mul(Float(1.1)).As("gross"))
		}},
		{"where-and-in-between", "SELECT oid FROM orders WHERE region IN (0, 1) AND amount BETWEEN 20 AND 60", func() Query {
			return scan("orders").
				Filter(And(Col("region").In(tuple.I64(0), tuple.I64(1)),
					Col("amount").Between(tuple.I64(20), tuple.I64(60)))).
				Project(Col("oid"))
		}},
		{"join-on", "SELECT name, amount FROM customers JOIN orders ON cid = cust", func() Query {
			return scan("customers").Join(scan("orders"), "cid", "cust").
				Project(Col("name"), Col("amount"))
		}},
		{"join-swapped", "SELECT name, amount FROM customers JOIN orders ON cid = cust", func() Query {
			return scan("orders").Join(scan("customers"), "cust", "cid").
				Project(Col("name"), Col("amount"))
		}},
		{"comma-join", "SELECT name, amount FROM customers c, orders o WHERE c.cid = o.cust AND o.amount > 20", func() Query {
			return scan("customers").Join(scan("orders"), "cid", "cust").
				Filter(Col("amount").Gt(Int(20))).
				Project(Col("name"), Col("amount"))
		}},
		{"group-by", "SELECT region, count(*) AS n, sum(amount) AS total FROM orders GROUP BY region", func() Query {
			return scan("orders").
				GroupBy([]string{"region"}, Count().As("n"), Sum(Col("amount")).As("total"))
		}},
		{"scalar-agg", "SELECT count(*) AS n, avg(amount) AS mean FROM orders", func() Query {
			return scan("orders").
				Aggregate(Count().As("n"), Avg(Col("amount")).As("mean"))
		}},
		{"sort-limit", "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 3", func() Query {
			return scan("orders").Select("oid", "amount").SortDesc("amount").Limit(3)
		}},
		{"date-filter", "SELECT oid FROM orders WHERE placed >= DATE '2024-03-01'", func() Query {
			return scan("orders").
				Filter(Col("placed").Ge(Date(19783))).
				Project(Col("oid"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Select(cat, parse[*sql.Select](t, tc.sqlText))
			if err != nil {
				t.Fatalf("Select(%q): %v", tc.sqlText, err)
			}
			want := tc.builder()
			gp, _, err := got.Compile(true)
			if err != nil {
				t.Fatal(err)
			}
			wp, _, err := want.Compile(true)
			if err != nil {
				t.Fatal(err)
			}
			if ge, we := got.Explain(gp), want.Explain(wp); ge != we {
				t.Errorf("plans differ:\nSQL:\n%s\nbuilder:\n%s", ge, we)
			}
			if gp.Signature() != wp.Signature() {
				t.Errorf("signatures differ (OSP would not share):\nSQL:     %s\nbuilder: %s",
					gp.Signature(), wp.Signature())
			}
			if got.limit != want.limit {
				t.Errorf("limit differs: SQL %d, builder %d", got.limit, want.limit)
			}
		})
	}
}

// TestOneWideningRule: an integer literal meeting a float or date column
// widens the same way in a predicate, an INSERT row and an UPDATE
// assignment, and a literal that cannot widen is the same typed error in
// INSERT and UPDATE.
func TestOneWideningRule(t *testing.T) {
	cat := testCatalog()
	f30, d30 := tuple.F64(30), tuple.Date(30)

	q, err := Select(cat, parse[*sql.Select](t, "SELECT oid FROM orders WHERE amount > 30 AND placed = 30"))
	if err != nil {
		t.Fatal(err)
	}
	var consts []tuple.Value
	plan.Walk(q.node, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			for _, c := range f.Pred.(*expr.And).Ps {
				consts = append(consts, c.(*expr.Cmp).R.(*expr.Const).V)
			}
		}
	})
	if len(consts) != 2 || consts[0] != f30 || consts[1] != d30 {
		t.Errorf("predicate literals = %v, want [%v %v]", consts, f30, d30)
	}

	rows, err := InsertRows(cat, parse[*sql.Insert](t, "INSERT INTO orders VALUES (1, 2, 3, 30, 30)"))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][3] != f30 || rows[0][4] != d30 {
		t.Errorf("INSERT row = %v, want amount %v and placed %v", rows[0], f30, d30)
	}

	up, err := Update(cat, parse[*sql.Update](t, "UPDATE orders SET amount = 30, placed = 30"))
	if err != nil {
		t.Fatal(err)
	}
	if v0, v1 := up.Set[0].E.(*expr.Const).V, up.Set[1].E.(*expr.Const).V; v0 != f30 || v1 != d30 {
		t.Errorf("UPDATE SET = %v, %v; want %v, %v", v0, v1, f30, d30)
	}

	want := TypeMismatchError{Expr: "orders.cust", Left: tuple.KindInt, Right: tuple.KindFloat}
	_, ierr := InsertRows(cat, parse[*sql.Insert](t, "INSERT INTO orders VALUES (1, 2.5, 3, 30, 30)"))
	_, uerr := Update(cat, parse[*sql.Update](t, "UPDATE orders SET cust = 2.5"))
	for _, err := range []error{ierr, uerr} {
		if tm, ok := err.(*TypeMismatchError); !ok || *tm != want {
			t.Errorf("err = %v, want %v", err, &want)
		}
	}
}
