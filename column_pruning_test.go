package qpipe_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
)

// Column pruning does not change the answer. The statements run over the
// benchmark's schema and ledger, a table with DATE and TEXT columns and an
// index; every FLOAT is integer-valued, so sums are exact in any order, and
// every ORDER BY ends in the table's unique first column, so a sorted reply
// has one right sequence.

type cpColumn struct {
	name string
	kind qpipe.Kind
	n    int // values are drawn from [0, n)
}

type cpTable struct {
	name       string
	cols       []cpColumn // cols[0] is unique
	group, num string     // a low-cardinality column and a FLOAT one
}

var cpTables = []cpTable{
	{"orders", []cpColumn{{"oid", qpipe.KindInt, 2000}, {"cust", qpipe.KindInt, 150}, {"region", qpipe.KindInt, 7},
		{"priority", qpipe.KindInt, 5}, {"amount", qpipe.KindFloat, 997}}, "region", "amount"},
	{"accounts", []cpColumn{{"aid", qpipe.KindInt, 300}, {"bal", qpipe.KindFloat, 1000}}, "bal", "bal"},
	{"events", []cpColumn{{"eid", qpipe.KindInt, 300}, {"aid", qpipe.KindInt, 300}, {"delta", qpipe.KindFloat, 9},
		{"note", qpipe.KindString, 20}}, "note", "delta"},
	{"ledger", []cpColumn{{"id", qpipe.KindInt, 1500}, {"k", qpipe.KindInt, 300}, {"f", qpipe.KindFloat, 200},
		{"d", qpipe.KindDate, 60}, {"s", qpipe.KindString, 20}}, "s", "f"},
}

func cpValue(c cpColumn, x int) qpipe.Value {
	switch c.kind {
	case qpipe.KindFloat:
		return qpipe.FloatValue(float64(x))
	case qpipe.KindDate:
		return qpipe.DateValue(int64(19000 + x))
	case qpipe.KindString:
		return qpipe.StringValue(fmt.Sprintf("s%02d", x))
	}
	return qpipe.IntValue(int64(x))
}

// cpOpen builds the data set in a database with small pages (so that a few
// thousand rows are enough pages for an index to win) and the given options.
func cpOpen(t *testing.T, opts qpipe.Options) *qpipe.DB {
	t.Helper()
	db := apOpen(t, opts)
	ctx := context.Background()
	if _, err := db.Exec(ctx, apBenchSchema+"\nCREATE TABLE ledger (id INT, k INT, f FLOAT, d DATE, s TEXT);"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for _, tb := range cpTables {
		rows := make([]qpipe.Row, tb.cols[0].n)
		for i, id := range rng.Perm(len(rows)) {
			rows[i] = qpipe.Row{cpValue(tb.cols[0], id)}
			for _, c := range tb.cols[1:] {
				rows[i] = append(rows[i], cpValue(c, rng.Intn(c.n)))
			}
		}
		if err := db.Load(tb.name, rows); err != nil {
			t.Fatal(err)
		}
	}
	customers := make([]qpipe.Row, 150)
	for i := range customers {
		customers[i] = qpipe.R(i, rng.Intn(4), float64(rng.Intn(500)))
	}
	if err := db.Load("customers", customers); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "CREATE INDEX ON orders (oid); CREATE INDEX ON ledger (k); ANALYZE"); err != nil {
		t.Fatal(err)
	}
	return db
}

// cpLeaf draws one comparison, BETWEEN or IN on a random column of tb, with
// literals inside the stored range and just outside it.
func cpLeaf(rng *rand.Rand, tb cpTable) apPred {
	c := tb.cols[rng.Intn(len(tb.cols))]
	lit := func() (string, qpipe.Expr, qpipe.Value) {
		v := cpValue(c, rng.Intn(c.n+2)-1)
		switch c.kind {
		case qpipe.KindFloat:
			return apFloat(v.F), qpipe.Lit(v), v
		case qpipe.KindDate:
			return apDate(v.I), qpipe.Lit(v), v
		case qpipe.KindString:
			return "'" + v.S + "'", qpipe.Lit(v), v
		}
		return strconv.FormatInt(v.I, 10), qpipe.Lit(v), v
	}
	col := qpipe.Col(c.name)
	as, ae, av := lit()
	bs, _, bv := lit()
	switch rng.Intn(8) {
	case 0, 1:
		return apPred{c.name + " = " + as, col.Eq(ae)}
	case 2:
		return apPred{c.name + " < " + as, col.Lt(ae)}
	case 3:
		return apPred{as + " >= " + c.name, ae.Ge(col)}
	case 4:
		return apPred{c.name + " > " + as, col.Gt(ae)}
	case 5:
		return apPred{c.name + " <> " + as, col.Ne(ae)}
	case 6:
		return apPred{c.name + " BETWEEN " + as + " AND " + bs, col.Between(av, bv)}
	default:
		return apPred{c.name + " IN (" + as + ", " + bs + ")", col.In(av, bv)}
	}
}

func cpPred(rng *rand.Rand, tb cpTable, depth int) apPred {
	if depth == 0 || rng.Intn(3) == 0 {
		return cpLeaf(rng, tb)
	}
	x, y := cpPred(rng, tb, depth-1), cpPred(rng, tb, depth-1)
	if rng.Intn(3) == 0 {
		return apPred{"(" + x.sql + " OR " + y.sql + ")", qpipe.Or(x.b, y.b)}
	}
	return apPred{"(" + x.sql + " AND " + y.sql + ")", qpipe.And(x.b, y.b)}
}

// cpStatement is one query in both spellings; ordered says its reply is a
// sequence, not a multiset.
type cpStatement struct {
	sql     string
	builder func(db *qpipe.DB) *qpipe.Query
	ordered bool
}

func cpDrawStatement(rng *rand.Rand) cpStatement {
	tb := cpTables[rng.Intn(len(cpTables))]
	if rng.Intn(2) == 0 {
		tb = cpTables[0] // orders is half the traffic, as in the benchmark
	}
	p := cpPred(rng, tb, 2)
	id, names := tb.cols[0].name, make([]string, len(tb.cols))
	for i, c := range tb.cols {
		names[i] = c.name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	some := names[:1+rng.Intn(len(names))] // a subset of the columns, in shuffled order
	from := func(tail string, args ...any) string {
		return fmt.Sprintf("SELECT "+tail, args...)
	}
	scan := func(db *qpipe.DB) *qpipe.Query { return db.Scan(tb.name).Filter(p.b) }
	switch rng.Intn(11) {
	case 0:
		return cpStatement{sql: from("* FROM %s WHERE %s", tb.name, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query { return scan(db) }}
	case 1, 2:
		return cpStatement{sql: from("%s FROM %s WHERE %s", strings.Join(some, ", "), tb.name, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query { return scan(db).Select(some...) }}
	case 3:
		return cpStatement{sql: from("%s, %s * 2 AS dbl, %s + %s AS plus FROM %s WHERE %s", id, tb.num, tb.num, id, tb.name, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return scan(db).Project(qpipe.Col(id), qpipe.Col(tb.num).Mul(qpipe.Int(2)).As("dbl"),
					qpipe.Col(tb.num).Add(qpipe.Col(id)).As("plus"))
			}}
	case 4:
		return cpStatement{sql: from("count(*) AS n FROM %s WHERE %s", tb.name, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query { return scan(db).Aggregate(qpipe.Count().As("n")) }}
	case 5:
		return cpStatement{sql: from("%s, count(*) AS n, sum(%s) AS total, min(%s) AS lo FROM %s WHERE %s GROUP BY %s", tb.group, tb.num, id, tb.name, p.sql, tb.group),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return scan(db).GroupBy([]string{tb.group}, qpipe.Count().As("n"),
					qpipe.Sum(qpipe.Col(tb.num)).As("total"), qpipe.Min(qpipe.Col(id)).As("lo"))
			}}
	case 6:
		p := cpPred(rng, cpTables[0], 1)
		return cpStatement{sql: from("segment, sum(amount) AS revenue, count(*) AS n FROM customers JOIN orders ON cid = cust WHERE %s GROUP BY segment", p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return db.Scan("customers").Join(db.Scan("orders"), "cid", "cust").Filter(p.b).
					GroupBy([]string{"segment"}, qpipe.Sum(qpipe.Col("amount")).As("revenue"), qpipe.Count().As("n"))
			}}
	case 7:
		p := cpPred(rng, cpTables[0], 1)
		return cpStatement{sql: from("s, count(*) AS n, sum(balance) AS owed FROM customers, orders, ledger WHERE cid = cust AND priority = k AND %s GROUP BY s", p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return db.Scan("customers").Join(db.Scan("orders"), "cid", "cust").Join(db.Scan("ledger"), "priority", "k").Filter(p.b).
					GroupBy([]string{"s"}, qpipe.Count().As("n"), qpipe.Sum(qpipe.Col("balance")).As("owed"))
			}}
	case 8: // ORDER BY columns the select list may not hold: the Sort is then below the Project
		return cpStatement{ordered: true, sql: from("%s FROM %s WHERE %s ORDER BY %s, %s", strings.Join(some, ", "), tb.name, p.sql, tb.num, id),
			builder: func(db *qpipe.DB) *qpipe.Query {
				if slices.Contains(some, id) && slices.Contains(some, tb.num) {
					return scan(db).Select(some...).Sort(tb.num, id)
				}
				return scan(db).Sort(tb.num, id).Select(some...)
			}}
	default:
		n := int64(1 + rng.Intn(40))
		return cpStatement{ordered: true, sql: from("%s, %s FROM %s WHERE %s ORDER BY %s DESC, %s DESC LIMIT %d", id, tb.num, tb.name, p.sql, tb.num, id, n),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return scan(db).Select(id, tb.num).SortDesc(tb.num, id).Limit(n)
			}}
	}
}

func TestColumnPruningDoesNotChangeTheAnswer(t *testing.T) {
	ctx := context.Background()
	db := cpOpen(t, qpipe.Options{})
	asWritten := cpOpen(t, qpipe.Options{DisableOptimizer: true}) // every scan produces every column
	conn := apServe(t, db)
	oracle := volcano.New(db.Engine().Runtime().SM)

	const statements = 220
	rng := rand.New(rand.NewSource(20261001))
	seen := map[string]int{} // what the draw exercised
	for i := 0; i < statements; i++ {
		st := cpDrawStatement(rng)
		p := cpPlan(t, db, st.sql)
		built := st.builder(db)
		bp, err := built.Plan()
		if err != nil {
			t.Fatalf("builder spelling of %s: %v", st.sql, err)
		}
		if p.Signature() != bp.Signature() {
			t.Fatalf("%s: the spellings plan differently\nSQL:     %s\nbuilder: %s", st.sql, p.Signature(), bp.Signature())
		}
		if err := plan.Validate(p); err != nil {
			t.Fatalf("%s: %v\n%s", st.sql, err, plan.Explain(p))
		}
		for _, leaf := range apLeaves(p) {
			switch l := leaf.(type) {
			case *plan.IndexScan:
				if l.Project != nil {
					seen["pruned index scan"]++
				}
			case *plan.TableScan:
				switch {
				case l.Project == nil:
					seen["full-width scan"]++
				case len(l.Project) == 0:
					seen["scan of no column"]++
				default:
					seen["pruned scan"]++
				}
				if l.Project != nil && l.Filter != nil {
					seen["pruned scan with a filter"]++
				}
			}
		}

		ref, err := asWritten.Query(ctx, st.sql)
		if err != nil {
			t.Fatalf("%s as written: %v", st.sql, err)
		}
		refRows, err := ref.All()
		if err != nil {
			t.Fatal(err)
		}
		render := apSorted
		if st.ordered {
			render = func(rows []qpipe.Row) []string {
				out := make([]string, len(rows))
				for i, r := range rows {
					out[i] = fmt.Sprint(r)
				}
				return out
			}
		}
		want := render(refRows)
		check := func(how string, rows []qpipe.Row, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s [%s]: %v", st.sql, how, err)
			}
			if got := render(rows); !equalRows(got, want) {
				t.Fatalf("%s [%s]: %d rows, as written %d\nplan:\n%sgot  %v\nwant %v",
					st.sql, how, len(got), len(want), plan.Explain(p), got, want)
			}
		}
		vr, err := oracle.Run(ctx, p)
		check("volcano on the pruned plan", vr, err)
		for _, par := range []int{1, 4} {
			for _, osp := range []bool{true, false} {
				how := fmt.Sprintf("parallelism %d, osp %v", par, osp)
				opts := []qpipe.QueryOption{qpipe.WithParallelism(par)}
				copts := []client.Option{client.WithParallelism(par)}
				if !osp {
					opts = append(opts, qpipe.WithoutOSP())
					copts = append(copts, client.WithoutOSP())
				}
				res, err := db.Query(ctx, st.sql, opts...)
				if err != nil {
					t.Fatalf("%s [SQL, %s]: %v", st.sql, how, err)
				}
				if got, want := res.Schema().String(), ref.Schema().String(); got != want {
					t.Fatalf("%s: schema %s, as written %s", st.sql, got, want)
				}
				rows, err := res.All()
				check("SQL, "+how, rows, err)
				if res, err = built.Run(ctx, opts...); err == nil {
					rows, err = res.All()
				}
				check("builder, "+how, rows, err)
				wr, err := conn.Query(ctx, st.sql, copts...)
				if err == nil {
					rows, err = wr.All()
				}
				check("wire, "+how, rows, err)
			}
		}
	}
	t.Logf("the draw: %v", seen)
	for _, what := range []string{"pruned scan", "pruned scan with a filter", "pruned index scan", "scan of no column", "full-width scan"} {
		if seen[what] < 5 {
			t.Errorf("only %d statements had a %s: %v", seen[what], what, seen)
		}
	}
}

// TestColumnPruningBenchPlans pins what each read statement of the benchmark
// (bench/defs.go) asks of its scans: the columns the plan reads, filters in
// table-column terms, no Project packet left over a bare select list, and
// nothing changed where every column is read.
func TestColumnPruningBenchPlans(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, true)
	asWritten := apBenchDB(t, qpipe.Options{DisableOptimizer: true}, true)
	explain := func(db *qpipe.DB, text string) string { return plan.Explain(cpPlan(t, db, text)) }
	for _, tc := range []struct{ class, text, want, written string }{
		{"scan_agg", apBenchScans[0], `
Aggregate sum(c0), count(*)
  TableScan orders (unordered) cols=[amount] filter=(c4<k2:500)
`, `
Aggregate sum(c4), count(*)
  Filter (c4<k2:500)
    TableScan orders (unordered)
`},
		{"groupby", apBenchScans[1], `
GroupBy keys=[0] (2 aggs)
  TableScan orders (unordered) cols=[region amount] filter=(c3=k1:2)
`, `
GroupBy keys=[2] (2 aggs)
  Filter (c3=k1:2)
    TableScan orders (unordered)
`},
		{"join_groupby", apBenchScans[2], `
GroupBy keys=[1] (1 aggs)
  HashJoin build[0]=probe[0]
    TableScan customers (unordered) cols=[cid segment] filter=(c1=k1:1)
    TableScan orders (unordered) cols=[cust amount]
`, ""},
		{"topn", apBenchScans[3], `
Sort keys=[1 0] desc top=10
  TableScan orders (unordered) cols=[oid amount] filter=(c4>k2:900)
`, `
Sort keys=[1 0] desc top=10
  Project 2 exprs
    Filter (c4>k2:900)
      TableScan orders (unordered)
`},
		{"stream_all", apBenchScans[4], `
TableScan events (unordered)
`, `
TableScan events (unordered)
`},
		{"read_hot", apBenchScans[5], `
Aggregate sum(c0), count(*)
  TableScan accounts (unordered) cols=[bal]
`, `
Aggregate sum(c1), count(*)
  TableScan accounts (unordered)
`},
		{"point_text", apBenchScans[6], `
TableScan accounts (unordered) cols=[bal] filter=(c0=k1:17)
`, `
Project 1 exprs
  Filter (c0=k1:17)
    TableScan accounts (unordered)
`},
		{"point_indexed", "SELECT amount FROM orders WHERE oid = 7", `
IndexScan orders.oid (unclustered, unordered) range=[7,7] cols=[amount] filter=(c0=k1:7)
`, `
Project 1 exprs
  Filter (c0=k1:7)
    TableScan orders (unordered)
`},
	} {
		if got := explain(db, tc.text); got != tc.want[1:] {
			t.Errorf("%s: %s\ngot:\n%swant:%s", tc.class, tc.text, got, tc.want)
		}
		if got := explain(asWritten, tc.text); tc.written != "" && got != tc.written[1:] {
			t.Errorf("%s with DisableOptimizer: %s\ngot:\n%swant:%s", tc.class, tc.text, got, tc.written)
		}
	}
	// stream_all reads every column: the signature is the one the statement
	// has without the pass.
	if got, want := planSig(t, db, apBenchScans[4]), planSig(t, asWritten, apBenchScans[4]); got != want {
		t.Errorf("SELECT * changed signature: %s, as written %s", got, want)
	}
	// And a scan that produces no column is not that scan: equal signatures
	// share one output, and these two outputs differ.
	if none := apLeaves(cpPlan(t, db, "SELECT count(*) AS n FROM events"))[0]; none.Signature() == planSig(t, db, apBenchScans[4]) {
		t.Errorf("count(*)'s scan has the signature of SELECT *: %s", none.Signature())
	}
}

// TestPrunedScansShareOnePageStream: the benchmark's scan_agg and
// join_groupby statements read different columns of orders — cols=[amount]
// and cols=[cust amount] — so their scan signatures differ; in flight
// together with a pool too small to hold the table, they still ride one
// circular scan, each with its own row program. An unread bare scan of a
// third column pins the scan while both statements arrive.
func TestPrunedScansShareOnePageStream(t *testing.T) {
	ctx := context.Background()
	db := apBenchDB(t, qpipe.Options{PoolPages: 16}, false)
	if a, b := apLeaves(cpPlan(t, db, apBenchScans[0])), apLeaves(cpPlan(t, db, apBenchScans[2])); a[0].Signature() == b[1].Signature() {
		t.Fatalf("the two statements ask the same of orders: %s", a[0].Signature())
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	db.ResetDiskStats()

	query := func(text string) *qpipe.Result {
		t.Helper()
		res, err := db.Query(ctx, text, qpipe.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	held := query("SELECT oid FROM orders")
	if _, err := held.Next(); err != nil { // mid-scan, and held there
		t.Fatal(err)
	}
	results := []*qpipe.Result{query(apBenchScans[0]), query(apBenchScans[2])}
	// Wait (at most ten seconds) until both have attached before the hold
	// is released.
	attached := func() int64 {
		return results[0].Stats().SatelliteAttaches() + results[1].Stats().SatelliteAttaches()
	}
	for deadline := time.Now().Add(10 * time.Second); attached() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if _, err := held.Discard(); err != nil { // release the hold
		t.Fatal(err)
	}
	var attaches [2]int64
	for i, res := range results {
		if _, err := res.Discard(); err != nil {
			t.Fatal(err)
		}
		attaches[i] = res.Stats().SatelliteAttaches()
	}
	if attaches[0]+attaches[1] < 1 {
		t.Errorf("neither statement attached to a shared scan: %v", attaches)
	}
	pages := cpHeapPages(t, db, "orders")
	if reads := db.DiskStats().Reads; reads >= 2*pages {
		t.Errorf("%d blocks read for three scans of a %d-page table: no page stream was shared", reads, pages)
	}
}

func cpPlan(t *testing.T, db *qpipe.DB, text string) plan.Node {
	t.Helper()
	q, err := db.Prepare(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	p, err := q.Plan()
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return p
}

func cpHeapPages(t *testing.T, db *qpipe.DB, table string) int64 {
	t.Helper()
	tb, err := db.Engine().Runtime().SM.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return int64(tb.Heap.NumPages())
}
