package qpipe

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
)

// openTestDB opens a DB with one table "t"(k int, grp int, val float,
// name string) holding n rows, mirroring newTestDB on the public surface.
func openTestDB(t testing.TB, n int, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.CreateTable("t", NewSchema(
		ColDef("k", KindInt),
		ColDef("grp", KindInt),
		ColDef("val", KindFloat),
		ColDef("name", KindString),
	)); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = R(i, i%10, float64(i)/2, "r")
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// ---- Validation: each failure mode yields its distinct typed error -----------

func TestBuilderUnknownTable(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	_, err := db.Scan("nope").Run(context.Background())
	var ute *UnknownTableError
	if !errors.As(err, &ute) || ute.Table != "nope" {
		t.Fatalf("err = %v, want *UnknownTableError{nope}", err)
	}
	// ScanIndex and Schema report the same type.
	if _, err := db.ScanIndex("nope", "k", Value{}, Value{}).Plan(); !errors.As(err, &ute) {
		t.Fatalf("ScanIndex err = %v, want *UnknownTableError", err)
	}
	if _, err := db.Schema("nope"); !errors.As(err, &ute) {
		t.Fatalf("Schema err = %v, want *UnknownTableError", err)
	}
}

func TestBuilderUnknownColumn(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	cases := map[string]*Query{
		"filter":  db.Scan("t").Filter(Col("missing").Gt(Int(1))),
		"project": db.Scan("t").Project(Col("missing")),
		"select":  db.Scan("t").Select("k", "missing"),
		"sort":    db.Scan("t").Sort("missing"),
		"groupby": db.Scan("t").GroupBy([]string{"missing"}, Count()),
		"agg":     db.Scan("t").Aggregate(Sum(Col("missing"))),
		"joinkey": db.Scan("t").Join(db.Scan("t"), "missing", "k"),
	}
	for what, q := range cases {
		_, err := q.Plan()
		var uce *UnknownColumnError
		if !errors.As(err, &uce) || uce.Column != "missing" {
			t.Errorf("%s: err = %v, want *UnknownColumnError{missing}", what, err)
		}
	}
	// The error names the schema it resolved against.
	var uce *UnknownColumnError
	_, err := db.Scan("t").Filter(Col("missing").Gt(Int(1))).Plan()
	if !errors.As(err, &uce) || !strings.Contains(uce.Schema, "k:int") {
		t.Fatalf("error should carry the input schema, got %v", err)
	}
}

func TestBuilderTypeMismatch(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	cases := map[string]*Query{
		"cmp string vs int":   db.Scan("t").Filter(Col("name").Gt(Int(5))),
		"arith over string":   db.Scan("t").Project(Col("name").Mul(Float(2))),
		"in string vs int":    db.Scan("t").Filter(Col("name").In(IntValue(1))),
		"between string":      db.Scan("t").Filter(Col("name").Between(IntValue(0), IntValue(5))),
		"join string=int":     db.Scan("t").Join(db.Scan("t"), "name", "k"),
		"sum over string":     db.Scan("t").Aggregate(Sum(Col("name"))),
		"mixed arith str lhs": db.Scan("t").Filter(Col("name").Add(Int(1)).Gt(Int(0))),
	}
	for what, q := range cases {
		_, err := q.Plan()
		var tme *TypeMismatchError
		if !errors.As(err, &tme) {
			t.Errorf("%s: err = %v, want *TypeMismatchError", what, err)
		}
	}
	// Numeric kinds are mutually comparable — no false positives.
	if _, err := db.Scan("t").Filter(Col("k").Gt(Float(1.5))).Plan(); err != nil {
		t.Fatalf("int vs float must be comparable: %v", err)
	}
}

func TestBuilderDuplicateColumns(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	cases := map[string]*Query{
		"project alias dup": db.Scan("t").Project(Col("k").As("x"), Col("grp").As("x")),
		"project plain dup": db.Scan("t").Project(Col("k"), Col("k")),
		"groupby agg dup":   db.Scan("t").GroupBy([]string{"grp"}, Count().As("n"), Sum(Col("val")).As("n")),
		"groupby key dup":   db.Scan("t").GroupBy([]string{"grp", "grp"}, Count()),
		"agg dup":           db.Scan("t").Aggregate(Count().As("n"), Sum(Col("val")).As("n")),
	}
	for what, q := range cases {
		_, err := q.Plan()
		var dce *DuplicateColumnError
		if !errors.As(err, &dce) {
			t.Errorf("%s: err = %v, want *DuplicateColumnError", what, err)
		}
	}
	var dce *DuplicateColumnError
	if err := db.CreateTable("bad", NewSchema(ColDef("a", KindInt), ColDef("a", KindInt))); !errors.As(err, &dce) {
		t.Fatalf("CreateTable dup column err = %v, want *DuplicateColumnError", err)
	}
}

func TestOptionConflicts(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	q := db.Scan("t")
	cases := map[string][]QueryOption{
		"zero parallelism":       {WithParallelism(0)},
		"negative parallelism":   {WithParallelism(-2)},
		"parallelism past bound": {WithParallelism(maxParallelism + 1)},
		"zero batch":             {WithBatchSize(0)},
		"batch past bound":       {WithBatchSize(maxBatchSize + 1)},
		"sharedscan without osp": {WithoutOSP(), WithSharedScan()},
	}
	for what, opts := range cases {
		_, err := q.Run(context.Background(), opts...)
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: err = %v, want *OptionError", what, err)
		}
	}
}

// TestErrorTypesAreDistinct pins the satellite requirement: every failure
// mode has its own type, distinguishable by errors.As.
func TestErrorTypesAreDistinct(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	var (
		ute *UnknownTableError
		uce *UnknownColumnError
		tme *TypeMismatchError
		dce *DuplicateColumnError
		oe  *OptionError
	)
	_, errTable := db.Scan("nope").Plan()
	_, errCol := db.Scan("t").Select("missing").Plan()
	_, errType := db.Scan("t").Filter(Col("name").Lt(Int(1))).Plan()
	_, errDup := db.Scan("t").Project(Col("k").As("x"), Col("k").As("x")).Plan()
	_, errOpt := db.Scan("t").Run(context.Background(), WithParallelism(-1))
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{errTable, errors.As(errTable, &ute) && !errors.As(errTable, &uce)},
		{errCol, errors.As(errCol, &uce) && !errors.As(errCol, &ute)},
		{errType, errors.As(errType, &tme) && !errors.As(errType, &dce)},
		{errDup, errors.As(errDup, &dce) && !errors.As(errDup, &tme)},
		{errOpt, errors.As(errOpt, &oe) && !errors.As(errOpt, &uce)},
	} {
		if !tc.want {
			t.Errorf("error %v matched the wrong type", tc.err)
		}
	}
}

// TestPlanValidationHook: hand-built positional plans with out-of-range
// references are rejected at submit with a typed *plan.ValidationError —
// the layer beneath the name-resolving builder.
func TestPlanValidationHook(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	s, _ := db.Schema("t")
	bad := plan.NewFilter(
		plan.NewTableScan("t", s, nil, nil, false),
		expr.GT(expr.Col(99), expr.CInt(0)))
	_, err := db.run(context.Background(), bad, -1, queryOpts{})
	var ve *plan.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *plan.ValidationError", err)
	}
}

// ---- Builder correctness ------------------------------------------------------

func TestBuilderEndToEnd(t *testing.T) {
	db := openTestDB(t, 100, Options{PoolPages: 32})
	rows, err := mustRun(t, db.Scan("t").
		Filter(Col("k").Lt(Int(10))).
		Project(Col("k"), Col("val").Mul(Float(2)).As("dbl")).
		Sort("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].F != float64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func mustRun(t testing.TB, q *Query) ([]Row, error) {
	t.Helper()
	res, err := q.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.All()
}

func TestBuilderJoinGroupBy(t *testing.T) {
	db := openTestDB(t, 200, Options{PoolPages: 64})
	if err := db.CreateTable("g", NewSchema(
		ColDef("gid", KindInt), ColDef("label", KindString))); err != nil {
		t.Fatal(err)
	}
	groups := make([]Row, 10)
	for i := range groups {
		groups[i] = R(i, "g")
	}
	if err := db.Load("g", groups); err != nil {
		t.Fatal(err)
	}
	rows, err := mustRun(t, db.Scan("g").
		Join(db.Scan("t"), "gid", "grp").
		GroupBy([]string{"gid"}, Count().As("n"), Sum(Col("val")).As("total")).
		Sort("gid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d groups, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].I != 20 {
			t.Fatalf("group %d = %v (want 20 members)", i, r)
		}
	}
}

func TestBuilderJoinOn(t *testing.T) {
	db := openTestDB(t, 30, Options{PoolPages: 32})
	// Self nested-loop join on an inequality over distinct column names:
	// k (left) pairs with grp (right) when k = grp.
	rows, err := mustRun(t, db.Scan("t").
		Select("k").
		JoinOn(db.Scan("t").Select("grp"), Col("k").Eq(Col("grp"))).
		Aggregate(Count().As("n")))
	if err != nil {
		t.Fatal(err)
	}
	// k in 0..9 matches grp values: each k<10 pairs with 3 rows (30 rows,
	// grp cycles 0..9 three times).
	if rows[0][0].I != 30 {
		t.Fatalf("count = %v, want 30", rows[0][0])
	}
}

func TestBuilderScanIndex(t *testing.T) {
	db := openTestDB(t, 100, Options{PoolPages: 64})
	// No index yet: typed error.
	_, err := db.ScanIndex("t", "k", IntValue(10), IntValue(19)).Plan()
	var nie *NoIndexError
	if !errors.As(err, &nie) {
		t.Fatalf("err = %v, want *NoIndexError", err)
	}
	if err := db.CreateIndex("t", "k", true); err != nil {
		t.Fatal(err)
	}
	rows, err := mustRun(t, db.ScanIndex("t", "k", IntValue(10), IntValue(19)).Select("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0][0].I != 10 || rows[9][0].I != 19 {
		t.Fatalf("index range scan: %v", rows)
	}
}

// ---- Streaming results --------------------------------------------------------

func TestRowsIterator(t *testing.T) {
	db := openTestDB(t, 500, Options{PoolPages: 32})
	res, err := db.Scan("t").Select("k").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, 500)
	var kept []Row // retained rows must stay valid after their batch recycles
	for row := range res.Rows() {
		if seen[row[0].I] {
			t.Fatalf("row %d delivered twice", row[0].I)
		}
		seen[row[0].I] = true
		if row[0].I < 5 {
			kept = append(kept, row)
		}
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 500 {
		t.Fatalf("iterated %d rows, want 500", len(seen))
	}
	for _, r := range kept {
		if r[0].K != KindInt || r[0].I < 0 || r[0].I >= 5 {
			t.Fatalf("retained row corrupted: %v", r)
		}
	}
}

func TestRowsEarlyBreakCancels(t *testing.T) {
	db := openTestDB(t, 5000, Options{PoolPages: 32})
	res, err := db.Scan("t").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res.Rows() {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("broke after %d rows", n)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("early break must not report an error, got %v", err)
	}
}

func TestLimit(t *testing.T) {
	db := openTestDB(t, 2000, Options{PoolPages: 32})
	res, err := db.Scan("t").Limit(25).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("limit delivered %d rows, want 25", len(rows))
	}
	// Limit 0 is a valid degenerate query.
	res0, err := db.Scan("t").Limit(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res0.Discard(); err != nil || n != 0 {
		t.Fatalf("limit 0: n=%d err=%v", n, err)
	}
}

// ---- Per-query options --------------------------------------------------------

func TestWithoutOSPNoSharing(t *testing.T) {
	db := openTestDB(t, 3000, Options{PoolPages: 16})
	db.SetDiskLatency(20e3, 30e3, 0) // nanoseconds: 20-30µs
	defer db.SetDiskLatency(0, 0, 0)
	agg := func() *Query {
		return db.Scan("t").Aggregate(Count().As("n"))
	}
	runPair := func(opts ...QueryOption) int64 {
		before := db.TotalShares()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := agg().Run(context.Background(), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := res.Discard(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return db.TotalShares() - before
	}
	if shares := runPair(WithoutOSP()); shares != 0 {
		t.Fatalf("WithoutOSP pair shared %d ops, want 0", shares)
	}
	// Identical concurrent queries with OSP on share (signature-exact
	// attach at agg or scan level) — probabilistic overlap, so retry.
	ok := false
	for try := 0; try < 5 && !ok; try++ {
		ok = runPair(WithSharedScan()) > 0
	}
	if !ok {
		t.Fatal("OSP pair never shared in 5 tries")
	}
}

func TestWithParallelismParity(t *testing.T) {
	db := openTestDB(t, 4000, Options{PoolPages: 64})
	want, err := mustRun(t, db.Scan("t").GroupBy([]string{"grp"}, Count().As("n"), Sum(Col("val")).As("s")).Sort("grp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := db.Scan("t").
			GroupBy([]string{"grp"}, Count().As("n"), Sum(Col("val")).As("s")).
			Sort("grp").
			Run(context.Background(), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d groups, want %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i][0].I != want[i][0].I || got[i][1].I != want[i][1].I || got[i][2].F != want[i][2].F {
				t.Fatalf("par=%d group %d: %v vs %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestWithBatchSizeBoundsBatches(t *testing.T) {
	db := openTestDB(t, 1000, Options{PoolPages: 32})
	res, err := db.Scan("t").Select("k").Run(context.Background(), WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		b, err := res.Next()
		if err != nil {
			break
		}
		if len(b) > 4 {
			t.Fatalf("batch of %d rows with WithBatchSize(4)", len(b))
		}
		total += len(b)
	}
	if total != 1000 {
		t.Fatalf("delivered %d rows, want 1000", total)
	}
}

// A scan at the root of the plan has no emitter above it to re-batch: the
// scanner itself must honour an explicit batch size (a page holds 240 of
// these rows), and leave its one batch per page alone without one.
func TestWithBatchSizeBoundsBatchesOfARootScan(t *testing.T) {
	db := openTestDB(t, 1000, Options{PoolPages: 32})
	largest := func(q *Query, opts ...QueryOption) int {
		t.Helper()
		res, err := q.Run(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		most, total := 0, 0
		for {
			b, err := res.Next()
			if err != nil {
				break
			}
			for _, row := range b {
				if row == nil {
					t.Fatal("a batch holds a row its predecessor's append wrote")
				}
			}
			// The batch is the caller's: growing it must not reach the next.
			_ = append(b, nil)
			most, total = max(most, len(b)), total+len(b)
		}
		if total != 1000 {
			t.Fatalf("delivered %d rows, want 1000", total)
		}
		return most
	}
	for name, q := range map[string]*Query{
		"bare scan":                   db.Scan("t"),
		"select folded into the scan": db.Scan("t").Select("k", "val"),
	} {
		if most := largest(q, WithBatchSize(4), WithParallelism(1)); most > 4 {
			t.Errorf("%s: batch of %d rows with WithBatchSize(4)", name, most)
		}
		if most := largest(q, WithBatchSize(100), WithParallelism(2)); most > 100 {
			t.Errorf("%s: batch of %d rows with WithBatchSize(100)", name, most)
		}
		if most := largest(q, WithParallelism(1)); most <= 64 { // the runtime default
			t.Errorf("%s: largest batch %d rows without a batch size: a page's rows were cut up", name, most)
		}
	}
}

// TestRunBatchRejectsForeignQuery: a query built against another DB's
// catalog carries foreign positional indexes and must be rejected.
func TestRunBatchRejectsForeignQuery(t *testing.T) {
	db1 := openTestDB(t, 10, Options{PoolPages: 32})
	db2 := openTestDB(t, 10, Options{PoolPages: 32})
	foreign := db1.Scan("t").Aggregate(Count())
	_, err := db2.RunBatch(context.Background(), []*Query{foreign})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 0 {
		t.Fatalf("err = %v, want *BatchError at index 0", err)
	}
}

// ---- DB-level validation ------------------------------------------------------

func TestLoadValidatesRows(t *testing.T) {
	db := openTestDB(t, 0, Options{PoolPages: 32})
	if err := db.Load("t", []Row{R(1, 2, 3.0)}); err == nil {
		t.Fatal("short row accepted")
	}
	var tme *TypeMismatchError
	if err := db.Load("t", []Row{R("not-an-int", 2, 3.0, "x")}); !errors.As(err, &tme) {
		t.Fatalf("kind mismatch err = %v, want *TypeMismatchError", err)
	}
	if err := db.Load("t", []Row{R(1, 2, 3.0, "x")}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}

// TestRunBatchTeardown: a member that fails to submit yields a typed
// *BatchError, and the members submitted before it are cancelled and waited
// out before RunBatch returns — whether the failure is the member's own (a
// builder error) or the engine's (admission sheds it while an earlier member
// holds the only slot).
func TestRunBatchTeardown(t *testing.T) {
	t.Run("member error", func(t *testing.T) {
		db := openTestDB(t, 2000, Options{PoolPages: 32})
		good := db.Scan("t").Aggregate(Count().As("n"))
		bad := db.Scan("t").Select("missing") // builder error surfaces at submit
		_, err := db.RunBatch(context.Background(), []*Query{good, bad})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("err = %v, want *BatchError at index 1", err)
		}
		if !errors.As(err, new(*UnknownColumnError)) {
			t.Fatal("BatchError must unwrap to the member's typed cause")
		}
		if len(be.Teardown) != 0 {
			t.Fatalf("clean teardown expected, got %v", be.Teardown)
		}
	})
	t.Run("shed at submit", func(t *testing.T) {
		// Member 0's result outgrows its 8-batch buffer, so it holds the only
		// admission slot until it is drained; with no queue, member 1 is shed.
		db := openTestDB(t, 20_000, Options{MaxConcurrentQueries: 1, AdmissionQueue: -1})
		_, err := db.RunBatch(context.Background(), []*Query{db.Scan("t"), db.Scan("t").Aggregate(Count())})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("err = %v, want *BatchError at index 1", err)
		}
		if !errors.As(err, new(*OverloadedError)) {
			t.Fatalf("err = %v, want it to unwrap to *OverloadedError", err)
		}
		if len(be.Teardown) != 0 {
			t.Fatalf("clean teardown expected, got %v", be.Teardown)
		}
		// Member 0 was waited out, not just cancelled: none of its packets is
		// still queued or running. The runtime gives its slot back a moment
		// after the query ends.
		if st := db.rt.DumpState(); strings.Contains(st, " queued]") || strings.Contains(st, " running]") {
			t.Fatalf("a batch member still runs after RunBatch returned:\n%s", st)
		}
		waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 0, "InFlight")
	})
}
