package qpipe

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qpipe/sql"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// sqlTestDB opens a DB with the orders/customers pair the SQL tests share.
func sqlTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	ctx := context.Background()
	if _, err := db.Exec(ctx, `
		CREATE TABLE customers (cid INT, name TEXT, segment INT);
		CREATE TABLE orders (oid INT, cust INT, region INT, amount FLOAT, placed DATE)
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, `
		INSERT INTO customers VALUES
			(1, 'acme', 0), (2, 'bolt', 1), (3, 'coil', 0);
		INSERT INTO orders VALUES
			(10, 1, 0, 25.0, DATE '2024-01-05'),
			(11, 1, 1, 75.0, DATE '2024-02-10'),
			(12, 2, 0, 50.0, DATE '2024-03-15'),
			(13, 3, 1, 10.0, DATE '2024-04-20'),
			(14, 3, 0, 40.0, DATE '2024-05-25')
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSQLExplainGolden locks the EXPLAIN rendering (plan tree + option
// annotations) against golden files. Regenerate with: go test -run
// TestSQLExplainGolden -update .
func TestSQLExplainGolden(t *testing.T) {
	db := sqlTestDB(t)
	ctx := context.Background()
	cases := []struct {
		name    string
		sqlText string
		opts    []QueryOption
	}{
		{"scan_filter", "EXPLAIN SELECT oid FROM orders WHERE amount > 30", nil},
		{"join_group", "EXPLAIN SELECT name, sum(amount) AS total FROM customers JOIN orders ON cid = cust GROUP BY name", nil},
		{"sort_limit_opts", "EXPLAIN SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 3",
			[]QueryOption{WithParallelism(4), WithBatchSize(128), WithoutOSP()}},
		{"expr_over_aggs", "EXPLAIN SELECT region, sum(amount) / count(*) AS mean FROM orders GROUP BY region", nil},
		{"comma_three_way", "EXPLAIN SELECT o.oid FROM customers c, orders o, customers d WHERE c.cid = o.cust AND o.cust = d.cid", nil},
		// Optimizer cases: predicate pushdown through the projection-free
		// scan, canonicalized predicates (commuted comparisons, BETWEEN as
		// bounds, vacuous conjuncts folded), and cardinality-driven join
		// reordering (the written order puts the big table first).
		{"pushdown_canonical", "EXPLAIN SELECT oid FROM orders WHERE 30 < amount AND 1 = 1 AND amount BETWEEN 10 AND 90", nil},
		{"join_reorder", "EXPLAIN SELECT name, sum(amount) AS total FROM orders o JOIN customers c ON o.cust = c.cid WHERE amount > 20 GROUP BY name", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := db.Query(ctx, tc.sqlText, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range rows {
				b.WriteString(r[0].S)
				b.WriteByte('\n')
			}
			got := b.String()
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func TestSQLResults(t *testing.T) {
	db := sqlTestDB(t)
	ctx := context.Background()
	query := func(text string) []Row {
		t.Helper()
		res, err := db.Query(ctx, text)
		if err != nil {
			t.Fatalf("Query(%q): %v", text, err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatalf("All(%q): %v", text, err)
		}
		return rows
	}

	rows := query("SELECT name FROM customers WHERE segment = 0 ORDER BY name")
	if len(rows) != 2 || rows[0][0].S != "acme" || rows[1][0].S != "coil" {
		t.Errorf("segment filter: got %v", rows)
	}

	rows = query("SELECT name, sum(amount) AS total FROM customers JOIN orders ON cid = cust GROUP BY name ORDER BY total DESC")
	if len(rows) != 3 || rows[0][0].S != "acme" || rows[0][1].F != 100 {
		t.Errorf("join+group: got %v", rows)
	}

	rows = query("SELECT count(*) AS n FROM orders WHERE placed BETWEEN DATE '2024-02-01' AND DATE '2024-04-30'")
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Errorf("date range count: got %v", rows)
	}

	rows = query("SELECT oid FROM orders ORDER BY amount DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].I != 11 || rows[1][0].I != 12 {
		t.Errorf("order/limit: got %v", rows)
	}

	// Qualified group-key references through the general aggregate shape:
	// the key is spelled bare in GROUP BY but qualified (and aliased, which
	// forces the general path) in the select list.
	rows = query("SELECT o.region AS r, count(*) AS n FROM orders o GROUP BY region ORDER BY r")
	if len(rows) != 2 || rows[0][0].I != 0 || rows[0][1].I != 3 {
		t.Errorf("qualified group key: got %v", rows)
	}
	rows = query("SELECT o.region * 10 AS rx, count(*) AS n FROM orders o GROUP BY region ORDER BY rx")
	if len(rows) != 2 || rows[1][0].I != 10 {
		t.Errorf("expr over qualified group key: got %v", rows)
	}

	// Expression over aggregates (general aggregate shape with a Project).
	rows = query("SELECT region, sum(amount) / count(*) AS mean FROM orders GROUP BY region ORDER BY region")
	if len(rows) != 2 {
		t.Fatalf("mean rows: got %v", rows)
	}
	if want := (25.0 + 50 + 40) / 3; rows[0][1].F != want {
		t.Errorf("region 0 mean = %v, want %v", rows[0][1].F, want)
	}

	// Result schema drives client rendering.
	res, err := db.Query(ctx, "SELECT name, segment FROM customers LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Schema().String(); s != "[name:string, segment:int]" {
		t.Errorf("schema = %s", s)
	}
	if _, err := res.Discard(); err != nil {
		t.Fatal(err)
	}
}

func TestSQLTypedErrors(t *testing.T) {
	db := sqlTestDB(t)
	ctx := context.Background()

	var ut *UnknownTableError
	if _, err := db.Query(ctx, "SELECT x FROM nope"); !errors.As(err, &ut) || ut.Table != "nope" {
		t.Errorf("unknown table: got %v", err)
	}
	var uc *UnknownColumnError
	if _, err := db.Query(ctx, "SELECT nope FROM orders"); !errors.As(err, &uc) || uc.Column != "nope" {
		t.Errorf("unknown column: got %v", err)
	}
	var tm *TypeMismatchError
	if _, err := db.Query(ctx, "SELECT oid FROM orders WHERE amount > 'high'"); !errors.As(err, &tm) {
		t.Errorf("type mismatch: got %v", err)
	}
	var ac *AmbiguousColumnError
	// Both customers-instances own "cid": a bare reference must not silently
	// resolve leftmost.
	if _, err := db.Query(ctx, "SELECT cid FROM customers a, customers b"); !errors.As(err, &ac) || ac.Column != "cid" {
		t.Errorf("ambiguous column: got %v", err)
	}
	// Qualified reference to the *second* table's copy: the builder would
	// resolve the bare name to the first — shadowing must be an error too.
	if _, err := db.Query(ctx, "SELECT b.cid FROM customers a JOIN customers b ON a.cid = b.cid"); !errors.As(err, &ac) {
		t.Errorf("shadowed qualified column: got %v", err)
	}
	var se *StatementError
	if _, err := db.Query(ctx, "CREATE TABLE t (a INT)"); !errors.As(err, &se) {
		t.Errorf("DDL via Query: got %v", err)
	}
	if _, err := db.Exec(ctx, "SELECT * FROM orders"); !errors.As(err, &se) {
		t.Errorf("SELECT via Exec: got %v", err)
	}
	var pe *sql.ParseError
	_, err := db.Query(ctx, "SELECT oid\nFROM orders\nWHERE amount >")
	if !errors.As(err, &pe) {
		t.Fatalf("parse error: got %v", err)
	}
	if pe.Pos.Line != 3 || pe.Pos.Col != 15 {
		t.Errorf("parse error position = %v, want 3:15", pe.Pos)
	}
	var oe *OptionError
	if _, err := db.Query(ctx, "SELECT oid FROM orders", WithParallelism(0)); !errors.As(err, &oe) {
		t.Errorf("bad option through SQL path: got %v", err)
	}
}

// TestAcceptanceDoesNotDependOnStatistics: a statement lowers once, in the
// order it names its tables, so whether it is accepted does not depend on
// which table is larger. Here b.x is shadowed by a.x, which the builder
// resolves first: the reference is ambiguous whatever the sizes.
func TestAcceptanceDoesNotDependOnStatistics(t *testing.T) {
	ctx := context.Background()
	for _, sizes := range [][2]int{{20, 5}, {5, 20}} {
		db, err := Open(Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(db.Close)
		if _, err := db.Exec(ctx, "CREATE TABLE a (k INT, k2 INT, x INT); CREATE TABLE b (k INT, x INT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sizes[0]; i++ {
			if _, err := db.Exec(ctx, fmt.Sprintf("INSERT INTO a VALUES (%d, %d, 0)", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < sizes[1]; i++ {
			x := 0
			if i < 5 {
				x = 1 // where the statement runs, its answer is 5
			}
			if _, err := db.Exec(ctx, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, x)); err != nil {
				t.Fatal(err)
			}
		}
		var ac *AmbiguousColumnError
		_, err = db.Query(ctx, "SELECT count(*) AS n FROM a, b WHERE a.k2 = b.k AND b.x = 1")
		if !errors.As(err, &ac) || ac.Column != "x" {
			t.Errorf("|a| = %d, |b| = %d: got %v, want *AmbiguousColumnError on x", sizes[0], sizes[1], err)
		}
	}
}

func TestSQLInsert(t *testing.T) {
	db := sqlTestDB(t)
	ctx := context.Background()

	// Named-column reordering plus int->float and int->date widening.
	n, err := db.Exec(ctx, "INSERT INTO orders (amount, oid, cust, region, placed) VALUES (99, 20, 1, 2, 19900)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("affected = %d, want 1", n)
	}
	res, err := db.Query(ctx, "SELECT amount, placed FROM orders WHERE oid = 20")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].F != 99 || rows[0][1].I != 19900 {
		t.Errorf("widened insert: got %v", rows)
	}

	var tm *TypeMismatchError
	if _, err := db.Exec(ctx, "INSERT INTO orders VALUES (21, 1, 0, 'cheap', 0)"); !errors.As(err, &tm) {
		t.Errorf("string into float: got %v", err)
	}
	var se *StatementError
	if _, err := db.Exec(ctx, "INSERT INTO orders (oid) VALUES (22)"); !errors.As(err, &se) {
		t.Errorf("partial column list: got %v", err)
	}
	var uc *UnknownColumnError
	if _, err := db.Exec(ctx, "INSERT INTO orders (oid, cust, region, amount, nope) VALUES (1,1,1,1,1)"); !errors.As(err, &uc) {
		t.Errorf("unknown insert column: got %v", err)
	}
}

func TestSQLPrepareAndBatch(t *testing.T) {
	db := sqlTestDB(t)
	ctx := context.Background()

	q, err := db.Prepare("SELECT count(*) AS n FROM orders WHERE region = 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a prepared query is reusable
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0].I != 3 {
			t.Errorf("run %d: n = %v, want 3", i, rows[0][0].I)
		}
	}

	// SQL-prepared and builder-built queries mix in one MQO batch.
	built := db.Scan("orders").Filter(Col("region").Eq(Int(0))).Aggregate(Count().As("n"))
	results, err := db.RunBatch(ctx, []*Query{q, built})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0].I != 3 {
			t.Errorf("batch member %d: n = %v, want 3", i, rows[0][0].I)
		}
	}
}

func TestSession(t *testing.T) {
	var s Session
	apply := func(text string) error {
		t.Helper()
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return s.Apply(stmt.(*sql.Set))
	}
	if err := apply("SET parallelism = 4"); err != nil {
		t.Fatal(err)
	}
	if err := apply("SET batch_size = 128"); err != nil {
		t.Fatal(err)
	}
	if err := apply("SET osp = off"); err != nil {
		t.Fatal(err)
	}
	if err := apply("SET statement_timeout = '250ms'"); err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "parallelism=4 batch_size=128 osp=off statement_timeout=250ms" {
		t.Errorf("session = %q", got)
	}
	if n := len(s.Options()); n != 4 {
		t.Errorf("options = %d, want 4", n)
	}
	var oe *OptionError
	for _, bad := range []string{"SET parallelism = 0", "SET parallelism = 1000000000", "SET batch_size = 1000000000"} {
		if err := apply(bad); !errors.As(err, &oe) {
			t.Errorf("%s: got %v", bad, err)
		}
	}
	if got := s.String(); got != "parallelism=4 batch_size=128 osp=off statement_timeout=250ms" {
		t.Errorf("a refused SET changed the session: %q", got)
	}
	if err := apply("SET nothing = 1"); !errors.As(err, &oe) {
		t.Errorf("unknown setting: got %v", err)
	}
	if err := apply("SET osp = on"); err != nil || s.OSPOff {
		t.Errorf("osp back on: %v %v", err, s.OSPOff)
	}

	// The options a session produces run a real query.
	db := sqlTestDB(t)
	res, err := db.Query(context.Background(), "SELECT count(*) FROM orders", s.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Discard(); err != nil {
		t.Fatal(err)
	}
}

// TestSQLExplainAnnotations: per-query options (parallelism, OSP) print as
// a trailing line under the plan tree.
func TestSQLExplainAnnotations(t *testing.T) {
	db := sqlTestDB(t)
	res, err := db.Query(context.Background(),
		"EXPLAIN SELECT region, count(*) FROM orders GROUP BY region",
		WithParallelism(8), WithoutOSP())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range rows {
		text.WriteString(r[0].S)
		text.WriteByte('\n')
	}
	out := text.String()
	if !strings.Contains(out, "options: parallelism=8 osp=off") {
		t.Errorf("missing option annotation:\n%s", out)
	}
	if !strings.Contains(out, "GroupBy") {
		t.Errorf("missing plan tree:\n%s", out)
	}
}

// Date(19783) in TestSQLMatchesBuilder is 2024-03-01; keep the derivation
// honest here rather than as a magic number.
func TestDateConstant(t *testing.T) {
	stmt, err := sql.Parse("SELECT a FROM t WHERE d = DATE '2024-03-01'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.(*sql.Select).Where.(*sql.Compare)
	if d := cmp.R.(*sql.DateLit).Days; d != 19783 {
		t.Fatalf("2024-03-01 = %d days, test constant stale", d)
	}
	_ = fmt.Sprintf
}
