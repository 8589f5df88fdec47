package qpipe_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"qpipe"
	"qpipe/internal/plan"
	"qpipe/internal/workload/sqlmix"
	"qpipe/sql"
)

// ---- Equivalent-spelling convergence (property test) -------------------------

// optVariantQueries are the base spellings the property test mutates. Each
// exercises a different planner path: pushed scan filters, group-by over a
// filtered scan, JOIN ... ON, comma joins with BETWEEN, and sort.
var optVariantQueries = []string{
	"SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE amount < 500 AND priority = 2",
	"SELECT region, count(*) AS n FROM orders WHERE priority = 2 AND region > 1 AND amount < 700 GROUP BY region",
	"SELECT segment, sum(amount) AS revenue FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1 GROUP BY segment",
	"SELECT region, count(*) AS n FROM customers, orders WHERE cid = cust AND amount BETWEEN 100 AND 800 GROUP BY region",
	"SELECT oid, amount FROM orders WHERE amount > 900 AND priority = 1 ORDER BY amount DESC",
}

// TestEquivalentSpellingsConverge is the optimizer's core property: randomly
// rewritten spellings of a query — shuffled WHERE conjuncts, commuted
// comparisons, swapped join sides, BETWEEN expanded to bounds — plan to a
// byte-identical Signature() and return the same result set as the original
// query lowered WITHOUT the optimizer (Options.DisableOptimizer).
func TestEquivalentSpellingsConverge(t *testing.T) {
	db := openPopulated(t, false)
	lit := openPopulated(t, true)
	rng := rand.New(rand.NewSource(1))

	for _, base := range optVariantQueries {
		baseSig := planSig(t, db, base)
		refRows := runSorted(t, lit, base)
		if got := runSorted(t, db, base); !equalRows(got, refRows) {
			t.Fatalf("optimized result diverged from unoptimized lowering for %q:\n opt %v\n lit %v", base, got, refRows)
		}
		for v := 0; v < 8; v++ {
			variant := mutateSpelling(t, rng, base)
			if sig := planSig(t, db, variant); sig != baseSig {
				t.Fatalf("signature diverged:\n base    %q\n variant %q\n base sig    %s\n variant sig %s", base, variant, baseSig, sig)
			}
			if got := runSorted(t, db, variant); !equalRows(got, refRows) {
				t.Fatalf("variant %q result diverged from unoptimized base:\n got %v\n ref %v", variant, got, refRows)
			}
		}
	}
}

func openPopulated(t *testing.T, disableOpt bool) *qpipe.DB {
	t.Helper()
	db, err := qpipe.Open(qpipe.Options{PoolPages: 128, DisableOptimizer: disableOpt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := sqlmix.Populate(db, 2000, 150); err != nil {
		t.Fatal(err)
	}
	return db
}

func planSig(t *testing.T, db *qpipe.DB, text string) string {
	t.Helper()
	q, err := db.Prepare(text)
	if err != nil {
		t.Fatalf("prepare %q: %v", text, err)
	}
	p, err := q.Plan()
	if err != nil {
		t.Fatalf("plan %q: %v", text, err)
	}
	return p.Signature()
}

func runSorted(t *testing.T, db *qpipe.DB, text string) []string {
	t.Helper()
	res, err := db.Query(context.Background(), text)
	if err != nil {
		t.Fatalf("query %q: %v", text, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("drain %q: %v", text, err)
	}
	return renderSorted(rows)
}

// renderSorted renders rows for an order-insensitive comparison.
func renderSorted(rows []qpipe.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mutateSpelling parses text and applies random meaning-preserving rewrites:
// conjunct shuffles, comparison commutes, BETWEEN expansion, join-side swaps.
func mutateSpelling(t *testing.T, rng *rand.Rand, text string) string {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	sel := stmt.(*sql.Select)
	sel.Where = mutatePred(rng, sel.Where)
	for i, j := range sel.Joins {
		sel.Joins[i].On = mutatePred(rng, j.On)
	}
	// Swap the first join's sides half the time: comma joins swap refs only;
	// JOIN ... ON moves the ON across (it names both sides, so it survives).
	if len(sel.Joins) == 1 && rng.Intn(2) == 0 {
		sel.From, sel.Joins[0].Ref = sel.Joins[0].Ref, sel.From
	}
	return sel.String()
}

func mutatePred(rng *rand.Rand, p sql.Pred) sql.Pred {
	switch q := p.(type) {
	case nil:
		return nil
	case *sql.And:
		ps := make([]sql.Pred, len(q.Ps))
		for i, sub := range q.Ps {
			ps[i] = mutatePred(rng, sub)
		}
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return &sql.And{Ps: ps}
	case *sql.Or:
		ps := make([]sql.Pred, len(q.Ps))
		for i, sub := range q.Ps {
			ps[i] = mutatePred(rng, sub)
		}
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return &sql.Or{Ps: ps}
	case *sql.Compare:
		if rng.Intn(2) == 0 {
			return &sql.Compare{Op: mirrorCmpOp(q.Op), L: q.R, R: q.L}
		}
		return q
	case *sql.BetweenPred:
		if !q.Neg && rng.Intn(2) == 0 {
			return &sql.And{Ps: []sql.Pred{
				&sql.Compare{Op: ">=", L: q.E, R: q.Lo},
				&sql.Compare{Op: "<=", L: q.E, R: q.Hi},
			}}
		}
		return q
	default:
		return p
	}
}

func mirrorCmpOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// ---- Join reordering ---------------------------------------------------------

// TestJoinReorderConvergesSwappedSides: the two JOIN ... ON spellings with
// swapped sides lower to byte-identical plans (same EXPLAIN text), and the
// chosen build side is the smaller table regardless of the written order.
func TestJoinReorderConvergesSwappedSides(t *testing.T) {
	db := openPopulated(t, false)
	a := runSorted(t, db, "EXPLAIN SELECT segment, sum(amount) AS r FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1 GROUP BY segment")
	b := runSorted(t, db, "EXPLAIN SELECT segment, sum(amount) AS r FROM orders o JOIN customers c ON o.cust = c.cid WHERE 1 = segment GROUP BY segment")
	if !equalRows(a, b) {
		t.Fatalf("swapped join sides did not converge:\n a: %v\n b: %v", a, b)
	}
}

// ---- ANALYZE and statistics --------------------------------------------------

func TestAnalyzeAndTableStats(t *testing.T) {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t", qpipe.NewSchema(
		qpipe.ColDef("a", qpipe.KindInt),
		qpipe.ColDef("b", qpipe.KindFloat),
	)); err != nil {
		t.Fatal(err)
	}
	rows := make([]qpipe.Row, 1000)
	for i := range rows {
		rows[i] = qpipe.R(i, float64(i%10))
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		ts, err := db.TableStats("t")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if ts.Rows != 1000 {
			t.Fatalf("%s: rows = %d, want 1000", stage, ts.Rows)
		}
		a, b := ts.Columns[0], ts.Columns[1]
		if a.Min.I != 0 || a.Max.I != 999 {
			t.Fatalf("%s: col a min/max = %v/%v, want 0/999", stage, a.Min, a.Max)
		}
		if a.Distinct < 900 || a.Distinct > 1100 {
			t.Fatalf("%s: col a distinct = %d, want ~1000", stage, a.Distinct)
		}
		if b.Distinct < 8 || b.Distinct > 12 {
			t.Fatalf("%s: col b distinct = %d, want ~10", stage, b.Distinct)
		}
	}
	check("incremental (Load)")

	// ANALYZE rebuilds from a full scan and lands on the same picture.
	if _, err := db.Exec(context.Background(), "ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	check("after ANALYZE t")
	if _, err := db.Exec(context.Background(), "ANALYZE"); err != nil {
		t.Fatal(err)
	}
	check("after ANALYZE (all tables)")

	// INSERT keeps stats fresh without a rescan.
	if _, err := db.Exec(context.Background(), "INSERT INTO t VALUES (2000, 99.0)"); err != nil {
		t.Fatal(err)
	}
	ts, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1001 {
		t.Fatalf("rows after insert = %d, want 1001", ts.Rows)
	}
	if ts.Columns[0].Max.I != 2000 {
		t.Fatalf("col a max after insert = %v, want 2000", ts.Columns[0].Max)
	}

	if _, err := db.TableStats("nope"); err == nil {
		t.Fatal("TableStats on unknown table: expected error")
	}
	if err := db.Analyze("nope"); err == nil {
		t.Fatal("ANALYZE on unknown table: expected error")
	}
}

// ---- LIMIT/share interaction -------------------------------------------------

// TestSortShareSurvivesHostLimit pins down the limit/share interaction the
// optimizer makes common: a LIMIT above what a Top-N holds (one sort run,
// plan.SortRunSize rows) is applied at the result, outside the plan
// signature, so such a query and its unlimited twin converge to the same
// external-sort plan and OSP-share it. When the limited query is the host,
// its result cancels the query once the limit is out — mid phase-2 stream —
// and the satellite, which holds the prefix and cannot be re-dispatched,
// must still receive the rest of the sorted file rather than inherit the
// host's cancellation. The satellite arrives while the host is held in its
// input phase: a bare scan of the table, its result unread, holds the
// scanner the host's scan rides.
func TestSortShareSurvivesHostLimit(t *testing.T) {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("s", qpipe.NewSchema(
		qpipe.ColDef("k", qpipe.KindInt),
		qpipe.ColDef("v", qpipe.KindFloat),
	)); err != nil {
		t.Fatal(err)
	}
	const rows = 20000
	data := make([]qpipe.Row, rows)
	for i := range data {
		data[i] = qpipe.R(i, float64(i))
	}
	if err := db.Load("s", data); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for iter := 0; iter < 5; iter++ {
		pin, err := db.Query(ctx, "SELECT k FROM s")
		if err != nil {
			t.Fatal(err)
		}
		first, err := pin.Next() // its scanner is registered and in flight
		if err != nil {
			t.Fatal(err)
		}
		host, err := db.Query(ctx, "SELECT k, v FROM s ORDER BY v DESC LIMIT 17000")
		if err != nil {
			t.Fatal(err)
		}
		sat, err := db.Query(ctx, "SELECT k, v FROM s ORDER BY v DESC")
		if err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().SharesByOp[plan.OpSort]; got != int64(iter+1) {
			t.Fatalf("iter %d: %d sort shares, want %d", iter, got, iter+1)
		}
		if n, err := pin.Discard(); err != nil || int(n)+len(first) != rows {
			t.Fatalf("iter %d: the pinning scan: %d rows, %v", iter, int(n)+len(first), err)
		}
		// Drain the host first: hitting its limit cancels the host query
		// while the satellite still depends on the shared sort stream.
		got, err := host.All()
		if err != nil {
			t.Fatalf("iter %d: host: %v", iter, err)
		}
		if len(got) != 17000 {
			t.Fatalf("iter %d: host rows = %d, want 17000", iter, len(got))
		}
		n, err := sat.Discard()
		if err != nil {
			t.Fatalf("iter %d: satellite: %v", iter, err)
		}
		if n != rows {
			t.Fatalf("iter %d: satellite rows = %d, want %d", iter, n, rows)
		}
	}
}

// TestPlanShareMixSharesAtTheRoot is what the optimizer buys OSP: the
// planshare mix writes each of four queries three ways, and the spellings
// share only where they fold to one plan. Both tables' scanners are pinned by
// a held bare scan, so every statement is still in flight when the next is
// sent, in file order: with the optimizer each group's later spellings attach
// at the root of its first (12 - 4 = 8 shares there), lowered as written
// fewer do — and each statement's rows are the same either way.
func TestPlanShareMixSharesAtTheRoot(t *testing.T) {
	mix, err := sqlmix.Parse(sqlmix.PlanShareMix())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	arm := func(disableOpt bool) (rootShares int64, rows [][]string) {
		db, err := qpipe.Open(qpipe.Options{PoolPages: 128, BlockSize: 1024, BufferCapacity: 2,
			ScanParallelism: 1, DisableOptimizer: disableOpt})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// 997 orders: amount = oid % 997 has no ties, so the mix's ORDER BY
		// amount … LIMIT 10 has one answer.
		if err := sqlmix.Populate(db, 997, 300); err != nil {
			t.Fatal(err)
		}
		var held []*qpipe.Result
		for _, pin := range []string{"SELECT * FROM orders", "SELECT * FROM customers"} {
			res, err := db.Query(ctx, pin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.Next(); err != nil { // its scanner is registered and in flight
				t.Fatal(err)
			}
			held = append(held, res)
		}
		roots := map[plan.OpType]bool{}
		for _, text := range mix.Queries {
			q, err := db.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			roots[p.Op()] = true
			res, err := q.Run(ctx, mix.Session.Options()...)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, res)
		}
		for op := range roots {
			rootShares += db.Stats().SharesByOp[op]
		}
		// Release: a satellite's rows come through its host, so everything
		// is drained side by side.
		rows = make([][]string, len(held))
		var wg sync.WaitGroup
		for i, res := range held {
			wg.Add(1)
			go func() {
				defer wg.Done()
				all, err := res.All()
				if err != nil {
					t.Errorf("statement %d: %v", i, err)
				}
				rows[i] = renderSorted(all)
			}()
		}
		wg.Wait()
		return rootShares, rows[2:]
	}
	opt, optRows := arm(false)
	lit, litRows := arm(true)
	if want := int64(len(mix.Queries) - 4); opt != want {
		t.Errorf("optimizer on: %d shares at the statements' roots, want %d", opt, want)
	}
	if lit >= opt {
		t.Errorf("lowered as written: %d shares at the statements' roots, want fewer than the optimizer's %d", lit, opt)
	}
	for i := range mix.Queries {
		if len(optRows[i]) == 0 || !equalRows(optRows[i], litRows[i]) {
			t.Errorf("statement %d: rows differ between the arms:\n optimized %v\n as written %v", i+1, optRows[i], litRows[i])
		}
	}
}
