package qpipe_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/internal/core"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
	"qpipe/sql"
)

// The access path does not change the answer. Three tables share one shape
// and one data set — c has a clustered index on k and an unclustered one on
// d, u has unclustered indexes on an INT, a FLOAT, a DATE and a TEXT column,
// n has none — and dim is the small other side of a join. Keys repeat (five
// rows per k, some forty per s, so runs of one key span leaves), FLOATs are
// multiples of 0.25 (fractional, but their sums are exact in any merge
// order), and the tables are built the hard way: half the rows loaded after
// the indexes exist, then key-changing UPDATEs and DELETEs on u and n (ghost
// entries in u's trees), then single INSERTs everywhere.

const apBlockSize = 1024 // small pages: a few thousand rows make a tree of height 3

var apTables = []string{"c", "u", "n"}

func apRow(rng *rand.Rand, id int) qpipe.Row {
	return qpipe.R(rng.Intn(400), rng.Intn(12), float64(rng.Intn(800))/4,
		qpipe.DateValue(int64(19000+rng.Intn(300))), fmt.Sprintf("s%02d", rng.Intn(40)), id)
}

const apSchemaSQL = `
CREATE TABLE c (k INT, g INT, f FLOAT, d DATE, s TEXT, id INT);
CREATE TABLE u (k INT, g INT, f FLOAT, d DATE, s TEXT, id INT);
CREATE TABLE n (k INT, g INT, f FLOAT, d DATE, s TEXT, id INT);
CREATE TABLE dim (gid INT, label TEXT);`

const apIndexSQL = `
CREATE CLUSTERED INDEX ON c (k); CREATE INDEX ON c (d);
CREATE INDEX ON u (k); CREATE INDEX ON u (f); CREATE INDEX ON u (d); CREATE INDEX ON u (s);`

// apPopulate builds the data set in db. Every database of the test runs it
// with the same seed, so they hold the same rows.
func apPopulate(t testing.TB, db *qpipe.DB, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	exec := func(text string) {
		t.Helper()
		if _, err := db.Exec(ctx, text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	exec(apSchemaSQL)
	batch := func(from, n int) []qpipe.Row {
		rows := make([]qpipe.Row, n)
		for i := range rows {
			rows[i] = apRow(rng, from+i)
		}
		return rows
	}
	load := func(rows []qpipe.Row) {
		t.Helper()
		for _, tb := range apTables {
			if err := db.Load(tb, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(batch(0, 1000))
	dim := make([]qpipe.Row, 12)
	for i := range dim {
		dim[i] = qpipe.R(i, fmt.Sprintf("label-%d", i%4))
	}
	if err := db.Load("dim", dim); err != nil {
		t.Fatal(err)
	}
	exec(apIndexSQL)
	load(batch(1000, 1000)) // after the indexes exist: every tree must follow
	for _, tb := range []string{"u", "n"} {
		exec(fmt.Sprintf("UPDATE %s SET k = k + 37 WHERE g = 3 AND k < 200", tb)) // keys move: ghosts
		exec(fmt.Sprintf("UPDATE %s SET s = 's07', f = f + 0.5 WHERE k = 11", tb))
		exec(fmt.Sprintf("DELETE FROM %s WHERE k = 5 OR id BETWEEN 300 AND 340", tb))
		exec(fmt.Sprintf("UPDATE %s SET k = k - 37 WHERE g = 3 AND k BETWEEN 100 AND 140", tb)) // some move back
	}
	for i, r := range batch(2000, 40) {
		vals := fmt.Sprintf("(%d, %d, %s, %s, '%s', %d)", r[0].I, r[1].I, apFloat(r[2].F), apDate(r[3].I), r[4].S, r[5].I)
		for _, tb := range apTables[i%2:] { // c misses every other one: the tables differ a little
			exec(fmt.Sprintf("INSERT INTO %s VALUES %s", tb, vals))
		}
	}
	exec("ANALYZE")
}

func apFloat(f float64) string { return (&sql.FloatLit{V: f}).String() }

func apDate(days int64) string { return (&sql.DateLit{Days: days}).String() }

// apPred is a predicate with its two spellings.
type apPred struct {
	sql string
	b   qpipe.Pred
}

// apLeaf draws one comparison on a random column: =, the four inequalities,
// BETWEEN or IN, with literals of the column's kind or — on the numeric
// columns — of the other numeric kind (k = 10.0, k < 10.5, f >= 3), inside
// and outside the stored range.
func apLeaf(rng *rand.Rand) apPred {
	type lit struct {
		sql string
		e   qpipe.Expr
		v   qpipe.Value
	}
	intLit := func(n int64) lit { return lit{strconv.FormatInt(n, 10), qpipe.Int(n), qpipe.IntValue(n)} }
	floatLit := func(f float64) lit { return lit{apFloat(f), qpipe.Float(f), qpipe.FloatValue(f)} }
	var col string
	var draw func() lit
	switch rng.Intn(6) {
	case 0, 1:
		col = "k"
		draw = func() lit {
			n := int64(rng.Intn(460) - 30) // some below 0 and above every key
			switch rng.Intn(4) {
			case 0:
				return floatLit(float64(n)) // k = 10.0
			case 1:
				return floatLit(float64(n) + 0.5) // k < 10.5
			}
			return intLit(n)
		}
	case 2:
		col = "f"
		draw = func() lit {
			if rng.Intn(3) == 0 {
				return intLit(int64(rng.Intn(220) - 10))
			}
			return floatLit(float64(rng.Intn(880)-40) / 4)
		}
	case 3:
		col = "d"
		draw = func() lit {
			days := int64(18990 + rng.Intn(320))
			return lit{apDate(days), qpipe.Date(days), qpipe.DateValue(days)}
		}
	case 4:
		col = "s"
		draw = func() lit {
			s := fmt.Sprintf("s%02d", rng.Intn(44)-2)
			return lit{"'" + s + "'", qpipe.String(s), qpipe.StringValue(s)}
		}
	default:
		col = "g"
		draw = func() lit { return intLit(int64(rng.Intn(14) - 1)) }
	}
	c := qpipe.Col(col)
	a, b := draw(), draw()
	switch rng.Intn(9) {
	case 0, 1, 2:
		return apPred{col + " = " + a.sql, c.Eq(a.e)}
	case 3:
		return apPred{col + " < " + a.sql, c.Lt(a.e)}
	case 4:
		return apPred{a.sql + " >= " + col, a.e.Ge(c)} // literal on the left
	case 5:
		return apPred{col + " > " + a.sql, c.Gt(a.e)}
	case 6:
		return apPred{col + " >= " + a.sql, c.Ge(a.e)}
	case 7:
		return apPred{col + " BETWEEN " + a.sql + " AND " + b.sql, c.Between(a.v, b.v)} // may be empty
	default:
		return apPred{col + " IN (" + a.sql + ", " + b.sql + ")", c.In(a.v, b.v)}
	}
}

func apDrawPred(rng *rand.Rand, depth int) apPred {
	if depth == 0 || rng.Intn(3) == 0 {
		return apLeaf(rng)
	}
	x, y := apDrawPred(rng, depth-1), apDrawPred(rng, depth-1)
	if rng.Intn(3) == 0 {
		return apPred{"(" + x.sql + " OR " + y.sql + ")", qpipe.Or(x.b, y.b)}
	}
	return apPred{"(" + x.sql + " AND " + y.sql + ")", qpipe.And(x.b, y.b)}
}

// apStatement is one query in both spellings — and, when it joins, a third:
// the join as a nested loop (both inequalities for the equality), which
// compares and never hashes.
type apStatement struct {
	sql     string
	builder func(db *qpipe.DB) *qpipe.Query
	loop    string
}

func apDrawStatement(rng *rand.Rand) apStatement {
	tb := apTables[rng.Intn(len(apTables))]
	p := apDrawPred(rng, 2)
	switch rng.Intn(8) {
	case 0:
		return apStatement{sql: fmt.Sprintf("SELECT * FROM %s WHERE %s", tb, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query { return db.Scan(tb).Filter(p.b) }}
	case 1, 2:
		return apStatement{sql: fmt.Sprintf("SELECT id, k, s FROM %s WHERE %s", tb, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query { return db.Scan(tb).Filter(p.b).Select("id", "k", "s") }}
	case 3:
		return apStatement{sql: fmt.Sprintf("SELECT g, count(*) AS n, sum(f) AS sf, min(s) AS lo FROM %s WHERE %s GROUP BY g", tb, p.sql),
			builder: func(db *qpipe.DB) *qpipe.Query {
				return db.Scan(tb).Filter(p.b).GroupBy([]string{"g"},
					qpipe.Count().As("n"), qpipe.Sum(qpipe.Col("f")).As("sf"), qpipe.Min(qpipe.Col("s")).As("lo"))
			}}
	default:
		return apDrawAggregate(rng, tb, p)
	}
}

// apDrawAggregate draws an aggregation straight over a scan of tb — what the
// scan µEngine folds on the page bytes when the scan is served page by page:
// scalar or grouped by one or two columns of any kind, every kind of
// aggregate over a column or an expression, and now and then no row at all.
// One in two joins dim first (the scan of tb is then the probe side, and the
// fold goes through the join): keys and arguments come from either side, an
// expression from both.
func apDrawAggregate(rng *rand.Rand, tb string, p apPred) apStatement {
	if rng.Intn(6) == 0 {
		p = apPred{"(" + p.sql + " AND id < 0)", qpipe.And(p.b, qpipe.Col("id").Lt(qpipe.Int(0)))}
	}
	type arg struct {
		sql string
		e   qpipe.Expr
	}
	numbers := []arg{
		{"k", qpipe.Col("k")}, {"f", qpipe.Col("f")}, {"id", qpipe.Col("id")},
		{"f * 4.0", qpipe.Col("f").Mul(qpipe.Float(4))}, {"k + g", qpipe.Col("k").Add(qpipe.Col("g"))},
		{"id - k * 2", qpipe.Col("id").Sub(qpipe.Col("k").Mul(qpipe.Int(2)))},
	}
	keyCols, anyCols := []string{"g", "s", "d", "k"}, []string{"k", "f", "d", "s"}
	joined := rng.Intn(2) == 0
	if joined {
		numbers = append(numbers, arg{"gid", qpipe.Col("gid")}, arg{"f * 2.0 - gid", qpipe.Col("f").Mul(qpipe.Float(2)).Sub(qpipe.Col("gid"))})
		keyCols, anyCols = []string{"label", "s", "gid", "d"}, append(anyCols, "label")
	}
	var keys []string
	for _, col := range keyCols {
		if len(keys) < 2 && rng.Intn(4) == 0 {
			keys = append(keys, col)
		}
	}
	list, aggs := append([]string(nil), keys...), []qpipe.Agg{}
	add := func(text string, a qpipe.Agg) {
		name := fmt.Sprintf("a%d", len(aggs))
		list, aggs = append(list, text+" AS "+name), append(aggs, a.As(name))
	}
	add("count(*)", qpipe.Count())
	for n := 1 + rng.Intn(3); n > 0; n-- {
		x := numbers[rng.Intn(len(numbers))]
		any := anyCols[rng.Intn(len(anyCols))]
		switch kind := rng.Intn(4); {
		case kind == 0:
			add("sum("+x.sql+")", qpipe.Sum(x.e))
		case kind == 1:
			add("avg("+x.sql+")", qpipe.Avg(x.e))
		case len(keys) == 0: // a MIN of no row is no value the wire carries
			add("sum("+x.sql+")", qpipe.Sum(x.e))
		case kind == 2:
			add("min("+any+")", qpipe.Min(qpipe.Col(any)))
		default:
			add("max("+any+")", qpipe.Max(qpipe.Col(any)))
		}
	}
	// The builder spells the join in FROM order: the planner orders both.
	from := func(db *qpipe.DB) *qpipe.Query {
		if !joined {
			return db.Scan(tb).Filter(p.b)
		}
		return db.Scan(tb).Join(db.Scan("dim"), "g", "gid").Filter(p.b)
	}
	text, loop := fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(list, ", "), tb, p.sql), ""
	if joined {
		text = fmt.Sprintf("SELECT %s FROM %s JOIN dim ON g = gid WHERE %s", strings.Join(list, ", "), tb, p.sql)
		loop = fmt.Sprintf("SELECT %s FROM %s, dim WHERE g <= gid AND g >= gid AND %s", strings.Join(list, ", "), tb, p.sql)
	}
	if len(keys) == 0 {
		return apStatement{text, func(db *qpipe.DB) *qpipe.Query { return from(db).Aggregate(aggs...) }, loop}
	}
	group := " GROUP BY " + strings.Join(keys, ", ")
	if joined {
		loop += group
	}
	return apStatement{text + group, func(db *qpipe.DB) *qpipe.Query { return from(db).GroupBy(keys, aggs...) }, loop}
}

// apLeaves returns the plan's scan nodes, left to right.
func apLeaves(p plan.Node) []plan.Node {
	var out []plan.Node
	plan.Walk(p, func(n plan.Node) {
		switch n.(type) {
		case *plan.TableScan, *plan.IndexScan:
			out = append(out, n)
		}
	})
	return out
}

func apBuildSide(p plan.Node) string {
	var side string
	plan.Walk(p, func(n plan.Node) {
		if j, ok := n.(*plan.HashJoin); ok {
			switch l := apLeaves(j.Left)[0].(type) {
			case *plan.TableScan:
				side = l.Table
			case *plan.IndexScan:
				side = l.Table
			}
		}
	})
	return side
}

func apSorted(rows []qpipe.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func apServe(t *testing.T, db *qpipe.DB) *client.Conn {
	t.Helper()
	_, addr := serveDB(t, db, qpipe.ServerOptions{})
	conn, err := client.Connect(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // runs before serveDB's shutdown
	return conn
}

func apOpen(t *testing.T, opts qpipe.Options) *qpipe.DB {
	t.Helper()
	opts.BlockSize = apBlockSize
	db, err := qpipe.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestAccessPathDoesNotChangeTheAnswer(t *testing.T) {
	const seed = 20260930
	ctx := context.Background()
	db := apOpen(t, qpipe.Options{})
	full := apOpen(t, qpipe.Options{DisableOptimizer: true}) // plans as written: the full scan
	apPopulate(t, db, seed)
	apPopulate(t, full, seed)
	conn := apServe(t, db)
	oracle := volcano.New(db.Engine().Runtime().SM)

	const statements = 160
	rng := rand.New(rand.NewSource(seed))
	used := map[string]int{} // access paths seen, by table and kind
	// What became of the hand-overs of the drawn aggregates over a join, by
	// reason, and how many of their runs had pairs added up by the scan.
	var throughJoin [core.NumHandOvers]int64
	foldedThroughJoin := 0
	for i := 0; i < statements; i++ {
		st := apDrawStatement(rng)
		fromSQL, err := db.Prepare(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		p, err := fromSQL.Plan()
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		built := st.builder(db)
		bp, err := built.Plan()
		if err != nil {
			t.Fatalf("builder spelling of %s: %v", st.sql, err)
		}
		if p.Signature() != bp.Signature() {
			t.Fatalf("%s: the spellings plan differently\nSQL:     %s\nbuilder: %s", st.sql, p.Signature(), bp.Signature())
		}
		for _, leaf := range apLeaves(p) {
			switch l := leaf.(type) {
			case *plan.IndexScan:
				used[fmt.Sprintf("%s index clustered=%v", l.Table, l.Clustered)]++
				if l.Table == "n" {
					t.Fatalf("%s: index scan on the table without indexes", st.sql)
				}
			case *plan.TableScan:
				used[l.Table+" heap"]++
			}
		}

		ref, err := full.Query(ctx, st.sql)
		if err != nil {
			t.Fatalf("%s on the full-scan database: %v", st.sql, err)
		}
		refRows, err := ref.All()
		if err != nil {
			t.Fatal(err)
		}
		want := apSorted(refRows)
		check := func(how string, rows []qpipe.Row, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s [%s]: %v", st.sql, how, err)
			}
			if got := apSorted(rows); !equalRows(got, want) {
				t.Fatalf("%s [%s]: %d rows, the full scan has %d\nplan:\n%sgot  %v\nwant %v",
					st.sql, how, len(got), len(want), plan.Explain(p), got, want)
			}
		}
		vr, err := oracle.Run(ctx, p)
		check("volcano on the chosen plan", vr, err)
		if st.loop != "" {
			if strings.Contains(plan.Explain(cpPlan(t, db, st.loop)), "HashJoin") {
				t.Fatalf("%s is planned with a hash join", st.loop)
			}
			res, err := db.Query(ctx, st.loop)
			if err != nil {
				t.Fatalf("%s: %v", st.loop, err)
			}
			rows, err := res.All()
			check("the join as a nested loop: "+st.loop, rows, err)
		}
		for _, par := range []int{1, 4} {
			for _, osp := range []bool{true, false} {
				how := fmt.Sprintf("parallelism %d, osp %v", par, osp)
				opts := []qpipe.QueryOption{qpipe.WithParallelism(par)}
				copts := []client.Option{client.WithParallelism(par)}
				if !osp {
					opts = append(opts, qpipe.WithoutOSP())
					copts = append(copts, client.WithoutOSP())
				}
				all := func(res *qpipe.Result, err error) ([]qpipe.Row, error) {
					if err != nil {
						return nil, err
					}
					rows, err := res.All()
					if st.loop != "" {
						for why := range throughJoin {
							throughJoin[why] += res.Stats().HandOvers[why].Load()
						}
						if res.Stats().FoldedRows.Load() > 0 {
							foldedThroughJoin++
						}
					}
					return rows, err
				}
				// An aggregate over a join runs, with OSP, beside a held scan
				// of dim that pins the join's build side until the aggregate
				// has counted what it handed down: the join cannot look before
				// the fold arrives, whichever goroutine the scheduler runs first.
				pinned := func(run func() (*qpipe.Result, error)) (*qpipe.Result, error) {
					if st.loop == "" || !osp {
						return run()
					}
					pin, err := db.Query(ctx, "SELECT label FROM dim", qpipe.WithBatchSize(1))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pin.Next(); err != nil {
						t.Fatal(err)
					}
					for !skHeld(pin) {
						time.Sleep(100 * time.Microsecond)
					}
					res, err := run()
					for deadline := time.Now().Add(20 * time.Second); err == nil && apHandOvers(res) == 0; time.Sleep(100 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%s [%s]: no hand-over counted after 20 s\n%s", st.sql, how, db.Engine().Runtime().DumpState())
						}
					}
					if _, err := pin.All(); err != nil {
						t.Fatal(err)
					}
					return res, err
				}
				rows, err := all(pinned(func() (*qpipe.Result, error) { return db.Query(ctx, st.sql, opts...) }))
				check("SQL, "+how, rows, err)
				rows, err = all(pinned(func() (*qpipe.Result, error) { return built.Run(ctx, opts...) }))
				check("builder, "+how, rows, err)
				wr, err := conn.Query(ctx, st.sql, copts...)
				if err == nil {
					rows, err = wr.All()
				}
				check("wire, "+how, rows, err)
			}
		}
	}
	// The draw must have exercised what the test is about.
	for _, path := range []string{"c index clustered=true", "c index clustered=false", "c heap",
		"u index clustered=false", "u heap", "n heap"} {
		if used[path] < 3 {
			t.Errorf("only %d statements used access path %q: %v", used[path], path, used)
		}
	}
	// And the aggregates among them what became of their hand-over to the
	// scan below (the joins' key filters and the Top-Ns' bounds are in the
	// same counts; a statement's are summed a moment after its reply).
	var st qpipe.Stats
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st = db.Stats(); st.HandOvers[core.HandOverInstalled] == st.Folds+st.KeyFilters+st.Bounds {
			break
		}
	}
	refused := -st.HandOvers[core.HandOverInstalled]
	for _, n := range st.HandOvers {
		refused += n
	}
	t.Logf("hand-overs: %d folds, %d key filters and %d bounds installed, %d refused %v", st.Folds, st.KeyFilters, st.Bounds, refused, st.HandOvers)
	if st.Folds < 20 || refused < 3 || st.HandOvers[core.HandOverInstalled] != st.Folds+st.KeyFilters+st.Bounds {
		t.Errorf("%d folds, %d key filters and %d bounds installed, %d hand-overs refused %v: want at least 20 folds, 3 refused, and installed their sum",
			st.Folds, st.KeyFilters, st.Bounds, refused, st.HandOvers)
	}
	// Over a join, what can occur is installed (the fold on the join's
	// packet; the join's keys when the fold was late), the bounded index range
	// nobody hands anything to, and what the scheduler decides — late where
	// dim was not pinned, and sealed for a scan that had finished — which is
	// printed, not required.
	t.Logf("aggregates over a join (SQL and builder runs): %d had pairs added up by the scan; hand-overs %v", foldedThroughJoin, throughJoin)
	for _, why := range []core.HandOver{core.HandOverInstalled, core.HandOverBoundedIndexRange} {
		if throughJoin[why] < 3 || foldedThroughJoin < 3 {
			t.Errorf("aggregates over a join: %d hand-overs ended %v and %d runs had pairs added up, want at least 3 of each (%v)", throughJoin[why], why, foldedThroughJoin, throughJoin)
		}
	}
}

// apHandOvers is how many of res's hand-overs have been counted.
func apHandOvers(res *qpipe.Result) int64 {
	var n int64
	for why := range res.Stats().HandOvers {
		n += res.Stats().HandOvers[why].Load()
	}
	return n
}

// TestIndexLookupsBesideAWriter: point and range lookups through a lazily
// maintained unclustered index run beside a writer that commits key-changing
// UPDATEs, DELETEs and INSERTs. Every reply must be the full-scan answer of
// the table as it stood after some commit no older than the last one
// acknowledged before the lookup was sent and no newer than the last one
// begun before its reply was complete (Berkholz et al.: maintained answer =
// recomputation at some instant).
func TestIndexLookupsBesideAWriter(t *testing.T) {
	ctx := context.Background()
	db := apOpen(t, qpipe.Options{})
	if _, err := db.Exec(ctx, "CREATE TABLE w (k INT, id INT)"); err != nil {
		t.Fatal(err)
	}
	const keys, perKey = 300, 4
	model := map[int64]int64{} // id -> k
	var rows []qpipe.Row
	for id := int64(0); id < keys*perKey; id++ {
		model[id] = id % keys
		rows = append(rows, qpipe.R(id%keys, id))
	}
	if err := db.Load("w", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "CREATE INDEX ON w (k); ANALYZE"); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"SELECT id FROM w WHERE k = 7", "SELECT id FROM w WHERE k BETWEEN 20 AND 24"} {
		if ex := apExplain(t, db, text); !strings.Contains(ex, "IndexScan w.k") {
			t.Fatalf("%s is not an index lookup:\n%s", text, ex)
		}
	}

	const commits = 150
	// history[i] is the table after commit i; begun and acked publish how far
	// the writer is. Each lookup releases one commit just before it is sent,
	// so the two meet at the table lock in either order.
	history := make([]map[int64]int64, commits+1)
	history[0] = model
	var begun, acked atomic.Int64
	release, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(7))
		nextID := int64(keys * perKey)
		for i := 1; i <= commits; i++ {
			if _, ok := <-release; !ok {
				return
			}
			next := make(map[int64]int64, len(history[i-1]))
			for id, k := range history[i-1] {
				next[id] = k
			}
			k := int64(rng.Intn(keys))
			var text string
			switch i % 3 {
			case 0: // the key moves: the old entry stays behind as a ghost
				to := int64(rng.Intn(keys))
				text = fmt.Sprintf("UPDATE w SET k = %d WHERE k = %d", to, k)
				for id, at := range next {
					if at == k {
						next[id] = to
					}
				}
			case 1:
				text = fmt.Sprintf("DELETE FROM w WHERE k = %d AND id < %d", k, nextID-1)
				for id, at := range next {
					if at == k && id < nextID-1 {
						delete(next, id)
					}
				}
			default:
				text = fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", k, nextID)
				next[nextID] = k
				nextID++
			}
			history[i] = next
			begun.Store(int64(i))
			if _, err := db.Exec(ctx, text); err != nil {
				t.Errorf("%s: %v", text, err)
				return
			}
			acked.Store(int64(i))
		}
	}()

	answer := func(state map[int64]int64, lo, hi int64) []string {
		var out []string
		for id, k := range state {
			if k >= lo && k <= hi {
				out = append(out, fmt.Sprintf("(%d, %d)", k, id))
			}
		}
		sort.Strings(out)
		return out
	}
	conn := apServe(t, db)
	rng := rand.New(rand.NewSource(8))
	for lookups := 0; lookups < commits && !t.Failed(); lookups++ {
		lo := int64(rng.Intn(keys))
		hi := lo
		if rng.Intn(2) == 0 {
			hi += int64(rng.Intn(4))
		}
		text := fmt.Sprintf("SELECT k, id FROM w WHERE k >= %d AND k <= %d", lo, hi)
		first := acked.Load()
		select {
		case release <- struct{}{}:
		case <-writerDone: // it failed; the loop condition ends the test
			continue
		}
		var got []qpipe.Row
		var err error
		if lookups%2 == 0 {
			var res *qpipe.Result
			if res, err = db.Query(ctx, text); err == nil {
				got, err = res.All()
			}
		} else {
			var wr *client.Rows
			if wr, err = conn.Query(ctx, text); err == nil {
				got, err = wr.All()
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		last := begun.Load()
		matched := false
		for i := first; i <= last && !matched; i++ {
			matched = equalRows(apSorted(got), answer(history[i], lo, hi))
		}
		if !matched {
			t.Fatalf("%s: reply %v matches no table state between commits %d and %d (then: %v, now: %v)",
				text, apSorted(got), first, last, answer(history[first], lo, hi), answer(history[last], lo, hi))
		}
	}
	close(release)
	<-writerDone
	if t.Failed() {
		return
	}
	// Quiescent: index, scan and model agree on every key.
	final := history[commits]
	res, err := db.ScanIndex("w", "k", qpipe.Value{}, qpipe.Value{}).Select("k", "id").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	viaIndex, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := apSorted(viaIndex), answer(final, 0, keys); !equalRows(got, want) {
		t.Fatalf("after the writer: the index yields %d rows, the model has %d", len(got), len(want))
	}
}

func apExplain(t *testing.T, db *qpipe.DB, text string) string {
	t.Helper()
	q, err := db.Prepare(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	ex, err := q.Explain()
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return ex
}

// The benchmark's schema and statement texts (bench/defs.go, bench/data.go),
// for the plan goldens below.
const apBenchSchema = `
CREATE TABLE orders (oid INT, cust INT, region INT, priority INT, amount FLOAT);
CREATE TABLE customers (cid INT, segment INT, balance FLOAT);
CREATE TABLE accounts (aid INT, bal FLOAT);
CREATE TABLE events (eid INT, aid INT, delta FLOAT, note TEXT);`

var apBenchScans = []string{
	`SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE amount < 500`,
	`SELECT region, count(*) AS n, avg(amount) AS avg_amount FROM orders WHERE priority = 2 GROUP BY region`,
	`SELECT segment, sum(amount) AS revenue FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1 GROUP BY segment`,
	`SELECT oid, amount FROM orders WHERE amount > 900 ORDER BY amount DESC, oid DESC LIMIT 10`,
	`SELECT * FROM events`,
	`SELECT sum(bal) AS total, count(*) AS n FROM accounts`,
	`SELECT bal FROM accounts WHERE aid = 17`,
}

func apBenchDB(t *testing.T, opts qpipe.Options, indexOrders bool) *qpipe.DB {
	t.Helper()
	db, err := qpipe.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	ctx := context.Background()
	if _, err := db.Exec(ctx, apBenchSchema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const orders = 20000
	rows := make([]qpipe.Row, orders)
	for i, oid := range rng.Perm(orders) {
		rows[i] = qpipe.R(oid, rng.Intn(orders/15), rng.Intn(7), rng.Intn(5), float64(rng.Intn(997)))
	}
	if err := db.Load("orders", rows); err != nil {
		t.Fatal(err)
	}
	var customers, accounts, events []qpipe.Row
	for i := 0; i < orders/15; i++ {
		customers = append(customers, qpipe.R(i, rng.Intn(4), float64(rng.Intn(500))))
	}
	for i := 0; i < 2000; i++ {
		accounts = append(accounts, qpipe.R(i, float64(rng.Intn(1000))))
		events = append(events, qpipe.R(i, rng.Intn(2000), 1.0, fmt.Sprintf("note-%019d", i)))
	}
	for name, rows := range map[string][]qpipe.Row{"customers": customers, "accounts": accounts, "events": events} {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	script := "ANALYZE"
	if indexOrders {
		script = "CREATE INDEX ON orders (oid); ANALYZE"
	}
	if _, err := db.Exec(ctx, script); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPointLookupAllocatesAboutOneRow: a point lookup that keeps one row
// allocates about one row's worth, not a chunk per worker. The benchmark's
// two point lookups, the table scan of accounts and the index scan of
// orders, each run 200 times at P=2; the bytes allocated per query must stay
// under 14 KiB.
func TestPointLookupAllocatesAboutOneRow(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, true)
	ctx := context.Background()
	for _, c := range []struct{ name, text, plan string }{
		{"table-scan", "SELECT bal FROM accounts WHERE aid = %d", "TableScan accounts"},
		{"index-scan", "SELECT amount FROM orders WHERE oid = %d", "IndexScan orders.oid"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if ex := apExplain(t, db, fmt.Sprintf(c.text, 17)); !strings.Contains(ex, c.plan) {
				t.Fatalf("plan is not a %s:\n%s", c.plan, ex)
			}
			query := func(key int) {
				res, err := db.Query(ctx, fmt.Sprintf(c.text, key), qpipe.WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				rows, err := res.All()
				if err != nil || len(rows) != 1 {
					t.Fatalf("key %d: %d rows, err %v", key, len(rows), err)
				}
			}
			query(0) // warm the pool and the plan cache out of the count
			const n = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range n {
				query(17 + i)
			}
			runtime.ReadMemStats(&after)
			perQuery := (after.TotalAlloc - before.TotalAlloc) / n
			t.Logf("%s: %d bytes allocated per query", c.name, perQuery)
			if perQuery >= 14<<10 {
				t.Fatalf("%s point lookup allocates %d bytes per query, want under 14 KiB", c.name, perQuery)
			}
		})
	}
}

// TestAccessPathPlanGoldens pins which plans get an index on the benchmark's
// schema: the point lookup and a narrow range do; a range the statistics put
// above the page rule, a predicate on a column without index, an OR across
// columns and every statement of the benchmark's scan workloads keep the
// table scan, with the signature they have on a database without the index.
func TestAccessPathPlanGoldens(t *testing.T) {
	db := apBenchDB(t, qpipe.Options{}, true)
	plain := apBenchDB(t, qpipe.Options{}, false)
	asWritten := apBenchDB(t, qpipe.Options{DisableOptimizer: true}, true)

	point := "SELECT amount FROM orders WHERE oid = 7"
	ex := apExplain(t, db, point)
	if !strings.Contains(ex, "IndexScan orders.oid (unclustered, unordered) range=[7,7] cols=[amount] filter=(c0=k1:7) rows≈1\n") {
		t.Errorf("EXPLAIN %s:\n%s", point, ex)
	}
	if ex := apExplain(t, asWritten, point); !strings.Contains(ex, "TableScan orders") || strings.Contains(ex, "IndexScan") {
		t.Errorf("EXPLAIN %s with DisableOptimizer:\n%s", point, ex)
	}
	built, err := db.Scan("orders").Filter(qpipe.Col("oid").Eq(qpipe.Int(7))).Select("amount").Plan()
	if err != nil {
		t.Fatal(err)
	}
	if sig := planSig(t, db, point); sig != built.Signature() {
		t.Errorf("point lookup: SQL and builder signatures differ\nSQL:     %s\nbuilder: %s", sig, built.Signature())
	}
	forced, err := db.ScanIndex("orders", "oid", qpipe.IntValue(7), qpipe.IntValue(7)).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if is, ok := forced.(*plan.IndexScan); !ok || is.Filter != nil {
		t.Errorf("ScanIndex is no longer the forced path it names: %s", forced.Signature())
	}

	for text, wantIndex := range map[string]bool{
		"SELECT amount FROM orders WHERE oid BETWEEN 9000 AND 9020":      true,
		"SELECT amount FROM orders WHERE oid >= 9000 AND 9020.5 > oid":   true,
		"SELECT amount FROM orders WHERE oid = 12.0":                     true,
		"SELECT amount FROM orders WHERE oid > 19990":                    true,
		"SELECT amount FROM orders WHERE oid = 3 AND amount < 100":       true,
		"SELECT amount FROM orders WHERE oid BETWEEN 2000 AND 9000":      false, // 7 000 rows against ~120 pages
		"SELECT amount FROM orders WHERE oid > 100":                      false,
		"SELECT amount FROM orders WHERE cust = 7":                       false, // no index on cust
		"SELECT amount FROM orders WHERE oid = 7 OR cust = 7":            false, // no conjunct bounds oid
		"SELECT amount FROM orders WHERE oid <> 7":                       false,
		"SELECT amount FROM orders WHERE oid IN (7, 8)":                  false,
		"SELECT oid FROM orders, customers WHERE cust = cid AND oid = 7": true, // under a join
	} {
		ex := apExplain(t, db, text)
		if got := strings.Contains(ex, "IndexScan orders.oid"); got != wantIndex {
			t.Errorf("%s: index chosen = %v, want %v\n%s", text, got, wantIndex, ex)
		}
	}
	for _, text := range apBenchScans {
		if ex := apExplain(t, db, text); strings.Contains(ex, "IndexScan") {
			t.Errorf("%s reads through an index:\n%s", text, ex)
		}
		if with, without := planSig(t, db, text), planSig(t, plain, text); with != without {
			t.Errorf("%s: the index on orders.oid changed its signature\nwith:    %s\nwithout: %s", text, with, without)
		}
	}
}

// TestClusteredIndexFollowsLoadsAndInserts: rows that arrive after CREATE
// CLUSTERED INDEX are in the tree — scan, index scan and point lookup agree
// — embedded and after reopening the same directory. At the parent commit
// the tree kept its 1 000 rows while the heap grew to 2 001, and the point
// lookup of a later row returned nothing.
func TestClusteredIndexFollowsLoadsAndInserts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db, err := qpipe.Open(qpipe.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(from, n int) []qpipe.Row {
		rows := make([]qpipe.Row, n)
		for i := range rows {
			rows[i] = qpipe.R(from+i, float64(from+i)/2)
		}
		return rows
	}
	count := func(db *qpipe.DB, q *qpipe.Query) int64 {
		t.Helper()
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		n, err := res.Discard()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	agree := func(db *qpipe.DB, stage string, want int64, present ...int64) {
		t.Helper()
		if n := count(db, db.Scan("t")); n != want {
			t.Fatalf("%s: the scan returns %d rows, want %d", stage, n, want)
		}
		if n := count(db, db.ScanIndex("t", "id", qpipe.Value{}, qpipe.Value{})); n != want {
			t.Fatalf("%s: the full clustered scan returns %d rows, the heap has %d", stage, n, want)
		}
		if n := count(db, db.ScanIndex("t", "id", qpipe.IntValue(0), qpipe.IntValue(5000))); n != want {
			t.Fatalf("%s: the clustered range [0,5000] returns %d rows, the heap has %d", stage, n, want)
		}
		for _, id := range present {
			text := fmt.Sprintf("SELECT v FROM t WHERE id = %d", id)
			if ex := apExplain(t, db, text); !strings.Contains(ex, "IndexScan t.id (clustered") {
				t.Fatalf("%s: %s does not use the clustered index:\n%s", stage, text, ex)
			}
			if rows := runSorted(t, db, text); len(rows) != 1 {
				t.Fatalf("%s: %s returns %v", stage, text, rows)
			}
		}
	}
	if _, err := db.Exec(ctx, "CREATE TABLE t (id INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("t", batch(0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "id", true); err != nil {
		t.Fatal(err)
	}
	agree(db, "after CREATE INDEX", 1000, 0, 999) // also fills the leaf-list cache
	if err := db.Load("t", batch(1000, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (5000, 1.0)"); err != nil {
		t.Fatal(err)
	}
	agree(db, "after a later load and insert", 2001, 0, 1500, 1999, 5000)
	db.Close()

	db, err = qpipe.Open(qpipe.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Analyze(""); err != nil { // statistics are not persisted
		t.Fatal(err)
	}
	agree(db, "reopened", 2001, 1500, 5000)
	if _, err := db.Exec(ctx, "INSERT INTO t VALUES (2500, 2.0)"); err != nil {
		t.Fatal(err)
	}
	agree(db, "reopened, after one more insert", 2002, 2500)
}
