package qpipe_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpipe"
	"qpipe/internal/core"
	"qpipe/internal/plan"
	"qpipe/internal/volcano"
)

// A hash join hands its finished build keys to its probe scan
// (core.Packet.Narrow), and hashes a number by its value. Neither changes an
// answer: every reply here is compared with the iterator engine's, with the
// plan as written, or with a model of the table.

// skAnswer runs text and returns the sorted rows and the result (for its
// counters).
func skAnswer(t *testing.T, db *qpipe.DB, text string, opts ...qpipe.QueryOption) ([]string, *qpipe.Result) {
	t.Helper()
	res, err := db.Query(context.Background(), text, opts...)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return apSorted(rows), res
}

func skVolcano(t *testing.T, db *qpipe.DB, p plan.Node) []string {
	t.Helper()
	rows, err := volcano.New(db.Engine().Runtime().SM).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return apSorted(rows)
}

// skOpen makes big(p INT, x INT) of 70 000 rows — more than a hash join
// builds in memory — beside small tables keyed by a FLOAT and by TEXT.
func skOpen(t *testing.T, opts qpipe.Options) *qpipe.DB {
	t.Helper()
	db, err := qpipe.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if _, err := db.Exec(context.Background(), `CREATE TABLE big (p INT, x INT); CREATE TABLE small (q INT, y FLOAT);
		CREATE TABLE names (n TEXT, v INT); CREATE TABLE tags (m TEXT, w INT)`); err != nil {
		t.Fatal(err)
	}
	big := make([]qpipe.Row, 70000)
	for i := range big {
		big[i] = qpipe.R(i, i)
	}
	small := []qpipe.Row{qpipe.R(0, 1.0), qpipe.R(1, 2.5), qpipe.R(2, 70000.0), qpipe.R(3, 69999.0), qpipe.R(4, 1.0)}
	var names, tags []qpipe.Row
	for i := 0; i < 3000; i++ {
		names = append(names, qpipe.R(fmt.Sprintf("name-%04d", i), i))
		if i%7 == 0 {
			tags = append(tags, qpipe.R(fmt.Sprintf("name-%04d", i+i%2), i))
		}
	}
	for name, rows := range map[string][]qpipe.Row{"big": big, "small": small, "names": names, "tags": tags} {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(context.Background(), "ANALYZE"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestJoinOnIntAndFloatKeys: tuple.Equal(I64(1), F64(1.0)) holds, so an
// equi-join of an INT column with a FLOAT one finds the pair, as the
// nested-loop spelling of the same condition always did. The hash used to
// mix the kind tag in, and the iterator engine shared it, so both engines
// lost the match together.
func TestJoinOnIntAndFloatKeys(t *testing.T) {
	want := []string{"(1, 0)", "(1, 4)", "(69999, 3)"}
	joinOn := qpipe.And(qpipe.Col("x").Le(qpipe.Col("y")), qpipe.Col("x").Ge(qpipe.Col("y")))
	for _, c := range []struct {
		how  string
		opts qpipe.Options
	}{
		{"in-memory build on small", qpipe.Options{}},
		{"partitioned: as written, build on big", qpipe.Options{DisableOptimizer: true}},
	} {
		db := skOpen(t, c.opts)
		spellings := map[string]*qpipe.Query{
			"SELECT p, q FROM big JOIN small ON big.x = small.y":                      db.Scan("big").Join(db.Scan("small"), "x", "y").Select("p", "q"),
			"SELECT p, q FROM big, small WHERE big.x <= small.y AND big.x >= small.y": db.Scan("big").JoinOn(db.Scan("small"), joinOn).Select("p", "q"),
		}
		for text, built := range spellings {
			if got, _ := skAnswer(t, db, text); !equalRows(got, want) {
				t.Errorf("%s: %s: %v, want %v", c.how, text, got, want)
			}
			p := cpPlan(t, db, text)
			if got := skVolcano(t, db, p); !equalRows(got, want) {
				t.Errorf("%s: %s [volcano]: %v, want %v", c.how, text, got, want)
			}
			res, err := built.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rows, err := res.All()
			if err != nil {
				t.Fatal(err)
			}
			if got := apSorted(rows); !equalRows(got, want) {
				t.Errorf("%s: builder spelling of %s: %v, want %v", c.how, text, got, want)
			}
		}
		if c.opts.DisableOptimizer {
			if side := apBuildSide(cpPlan(t, db, "SELECT p, q FROM big JOIN small ON big.x = small.y")); side != "big" {
				t.Errorf("the plan as written builds on %s: the partitioned join was not exercised", side)
			}
		}
	}
}

// TestSidewaysKeysInstallOnlyWhereTheyHelp walks the cases around the
// mechanism: what installs a filter, what does not, and that the answer is
// the iterator engine's either way.
func TestSidewaysKeysInstallOnlyWhereTheyHelp(t *testing.T) {
	db := skOpen(t, qpipe.Options{PoolPages: 4096})
	asWritten := skOpen(t, qpipe.Options{DisableOptimizer: true})
	bigPages := cpHeapPages(t, db, "big")

	run := func(db *qpipe.DB, text string, wantFilters int64, opts ...qpipe.QueryOption) *qpipe.Result {
		t.Helper()
		before := db.Stats().KeyFilters
		got, res := skAnswer(t, db, text, opts...)
		if want := skVolcano(t, db, cpPlan(t, db, text)); !equalRows(got, want) {
			t.Errorf("%s: %d rows, the iterator engine has %d\ngot  %.200v\nwant %.200v", text, len(got), len(want), got, want)
		}
		if n := db.Stats().KeyFilters - before; n != wantFilters {
			t.Errorf("%s: %d key filters installed, want %d", text, n, wantFilters)
		}
		return res
	}

	// The ordinary case: five build rows against 70 000.
	join := "SELECT p, q FROM small JOIN big ON small.y = big.x"
	if res := run(db, join, 1); res.Stats().KeyFilterRows.Load() < 60000 {
		t.Errorf("%s: %d rows left unbuilt, want most of 70 000", join, res.Stats().KeyFilterRows.Load())
	}
	for _, opt := range []qpipe.QueryOption{qpipe.WithoutOSP(), qpipe.WithParallelism(4), qpipe.WithBatchSize(7)} {
		run(db, join, 1, opt)
	}
	// An empty build side joins nothing, and the probe is still read, once.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	db.ResetDiskStats()
	empty := "SELECT p, q FROM small JOIN big ON small.y = big.x WHERE q > 99"
	if res := run(db, empty, 1); res.Stats().KeyFilterRows.Load() < 60000 {
		t.Errorf("%s: %d rows left unbuilt", empty, res.Stats().KeyFilterRows.Load())
	}
	// (the reference run on the iterator engine found the pages in the pool)
	if reads := db.DiskStats().ByFile["tbl:big"]; reads != bigPages {
		t.Errorf("%s: %d blocks of big read, want its %d pages once (%v)", empty, reads, bigPages, db.DiskStats().ByFile)
	}
	// A TEXT key is not hashed in place: nothing is installed.
	run(db, "SELECT v, w FROM tags JOIN names ON m = n", 0)
	// Nor for a build side too big to stay in memory (the plan as written
	// builds on big), nor by a join whose probe side is not a scan: of the
	// two joins below only the inner one has a scan to narrow.
	run(asWritten, "SELECT p, q FROM big JOIN small ON big.x = small.y", 0)
	nested := asWritten.Scan("small").Join(asWritten.Scan("tags").Join(asWritten.Scan("names"), "w", "v"), "q", "w")
	before := asWritten.Stats().KeyFilters
	res, err := nested.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.All()
	if err != nil {
		t.Fatal(err)
	}
	p, err := nested.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := apSorted(rows), skVolcano(t, asWritten, p); !equalRows(got, want) || len(got) == 0 {
		t.Errorf("join of joins: %v, the iterator engine has %v", got, want)
	}
	if n := asWritten.Stats().KeyFilters - before; n != 1 {
		t.Errorf("join of joins: %d key filters installed, want the inner join's only", n)
	}
}

// TestNarrowedScanBesideAPlainOne pins the hazard: the benchmark's
// join_groupby probes orders through a scan of cols=[cust amount], which is
// the scan of `SELECT cust, amount FROM orders` to the letter — same
// signature. Released together, either the two packets share one output, and
// then the join must not narrow it, or the join narrows its own and the other
// rides the same circular scan as a consumer of its own. In both arrival
// orders the plain statement gets every row, and the table is read once.
func TestNarrowedScanBesideAPlainOne(t *testing.T) {
	ctx := context.Background()
	db := apBenchDB(t, qpipe.Options{PoolPages: 16}, false)
	join, plain := apBenchScans[2], "SELECT cust, amount FROM orders"
	if a, b := apLeaves(cpPlan(t, db, join))[1].Signature(), apLeaves(cpPlan(t, db, plain))[0].Signature(); a != b {
		t.Fatalf("the probe scan and the plain one differ: %s, %s", a, b)
	}
	want := map[string][]string{join: skVolcano(t, db, cpPlan(t, db, join)), plain: skVolcano(t, db, cpPlan(t, db, plain))}
	pages := cpHeapPages(t, db, "orders")
	db.SetDiskLatency(200*time.Microsecond, 200*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	// Three arrivals: the join and the plain statement back to back, in both
	// orders, and the plain statement once the join has narrowed its scan.
	arrivals := []struct {
		how   string
		first string
		late  bool
	}{{"join, plain", join, false}, {"plain, join", plain, false}, {"join, its keys handed over, plain", join, true}}
	outcomes := map[string]int{}
	for _, par := range []int{1, 4} {
		for _, arr := range arrivals {
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			db.ResetDiskStats()
			filters := db.Stats().KeyFilters
			results := map[string]*qpipe.Result{}
			var wg sync.WaitGroup
			for _, text := range []string{arr.first, map[string]string{join: plain, plain: join}[arr.first]} {
				res, err := db.Query(ctx, text, qpipe.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				results[text] = res
				wg.Add(1)
				go func() {
					defer wg.Done()
					rows, err := res.All()
					if err != nil {
						t.Errorf("%s: %v", text, err)
					} else if got := apSorted(rows); !equalRows(got, want[text]) {
						t.Errorf("P=%d, %s: %s returned %d rows, want %d", par, arr.how, text, len(got), len(want[text]))
					}
				}()
				for deadline := time.Now().Add(10 * time.Second); arr.late && db.Stats().KeyFilters == filters && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
			}
			wg.Wait()
			shared := results[join].Stats().HostedSatellites.Load()+results[plain].Stats().HostedSatellites.Load() > 0
			narrowed := db.Stats().KeyFilters > filters
			if shared == narrowed || (arr.late && !narrowed) {
				t.Errorf("P=%d, %s: one output shared %v, scan narrowed %v: want exactly one", par, arr.how, shared, narrowed)
			}
			if unbuilt := results[join].Stats().KeyFilterRows.Load(); (unbuilt > 0) != narrowed || results[plain].Stats().KeyFilterRows.Load() != 0 {
				t.Errorf("P=%d, %s: the join left %d rows unbuilt (narrowed %v), the plain scan %d", par, arr.how, unbuilt, narrowed, results[plain].Stats().KeyFilterRows.Load())
			}
			// (a late arrival is owed the pages it missed: the scan wraps)
			if reads := db.DiskStats().ByFile["tbl:orders"]; reads < pages || reads >= 2*pages {
				t.Errorf("P=%d, %s: %d blocks of orders read for two statements of a %d-page table: no page stream was shared", par, arr.how, reads, pages)
			}
			outcomes[fmt.Sprintf("%s: narrowed %v", arr.how, narrowed)]++
		}
	}
	t.Log(outcomes)
}

// TestFoldedScanBesideAPlainOne is the same hazard for the fold: the
// benchmark's scan_agg reads orders through the scan of `SELECT amount FROM
// orders WHERE amount < 500` to the letter, and an aggregate that hands its
// accumulators down gets no rows — which a statement sharing that scan
// packet's output would then not get either. Every arrival is a state, not a
// moment: something is held by its unread result while the rest is sent.
//
//   - The plain scan, held inside its replay window, then the aggregate: the
//     aggregate's scan is absorbed as the plain one's satellite, the hand-over
//     is refused (reason satellite) and the aggregate adds rows.
//   - The plain scan, held past its window, then the aggregate: its scan rides
//     the plain one's circular scan as a consumer of its own, and folds.
//   - A bare scan of another signature, held, pins the table's scanner; the
//     aggregate, its fold seen installed; then the plain scan: both ride the
//     pinned scan, each a consumer of its own.
//   - The scan µEngine's one worker is held by a scan of another table; the
//     aggregate — its scan packet waits in the queue, and is handed the fold
//     there —; then the plain scan, which finds that packet in the queue and
//     must not become the satellite of a packet that produces no row.
//
// In every order both answers are the iterator engine's, and the table is
// read less than twice wherever two scans of it could run side by side.
func TestFoldedScanBesideAPlainOne(t *testing.T) {
	ctx := context.Background()
	agg, plain := apBenchScans[0], "SELECT amount FROM orders WHERE amount < 500"
	arrivals := []struct {
		how   string
		opts  qpipe.Options
		held  string // sent first, one batch of it read: holds what it scans
		first string // of agg and plain
		why   core.HandOver
	}{
		{"plain held inside its replay window, aggregate", qpipe.Options{ReplayWindow: -1}, plain, plain, core.HandOverSatellite},
		{"plain held past its replay window, aggregate", qpipe.Options{ReplayWindow: 1}, plain, plain, core.HandOverInstalled},
		{"orders pinned, aggregate, its fold installed, plain", qpipe.Options{}, "SELECT oid FROM orders", agg, core.HandOverInstalled},
		{"the scan worker held, aggregate, its fold installed, plain", qpipe.Options{WorkersPerEngine: 1}, "SELECT * FROM events", agg, core.HandOverInstalled},
	}
	for _, arr := range arrivals {
		arr.opts.PoolPages = 16
		db := apBenchDB(t, arr.opts, false)
		if a, b := apLeaves(cpPlan(t, db, agg))[0].Signature(), apLeaves(cpPlan(t, db, plain))[0].Signature(); a != b {
			t.Fatalf("the aggregate's scan and the plain one differ: %s, %s", a, b)
		}
		want := map[string][]string{agg: skVolcano(t, db, cpPlan(t, db, agg)), plain: skVolcano(t, db, cpPlan(t, db, plain))}
		pages := cpHeapPages(t, db, "orders")
		for _, par := range []int{1, 4} {
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			db.ResetDiskStats()
			before := db.Stats()
			results := map[string]*qpipe.Result{}
			send := func(text string) *qpipe.Result {
				t.Helper()
				if results[text] == nil {
					res, err := db.Query(ctx, text, qpipe.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					results[text] = res
				}
				return results[text]
			}
			taken, err := send(arr.held).Next()
			if err != nil {
				t.Fatal(err)
			}
			answers := map[string][]qpipe.Row{arr.held: append([]qpipe.Row(nil), taken...)}
			send(arr.first)
			for deadline := time.Now().Add(20 * time.Second); arr.first == agg && db.Stats().Folds == before.Folds; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("P=%d, %s: the aggregate installed no fold", par, arr.how)
				}
			}
			send(agg)
			send(plain)
			var wg sync.WaitGroup
			var mu sync.Mutex
			for text, res := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rows, err := res.All()
					if err != nil {
						t.Errorf("P=%d, %s: %s: %v", par, arr.how, text, err)
					}
					mu.Lock()
					answers[text] = append(answers[text], rows...)
					mu.Unlock()
				}()
			}
			wg.Wait()
			for _, text := range []string{agg, plain} {
				if got := apSorted(answers[text]); !equalRows(got, want[text]) {
					t.Errorf("P=%d, %s: %s returned %d rows, want %d", par, arr.how, text, len(got), len(want[text]))
				}
			}
			after := db.Stats()
			for why := range after.HandOvers {
				n := int64(0)
				if core.HandOver(why) == arr.why {
					n = 1
				}
				if got := after.HandOvers[why] - before.HandOvers[why]; got != n {
					t.Errorf("P=%d, %s: %d hand-overs ended %v, want %d", par, arr.how, got, core.HandOver(why), n)
				}
			}
			shared := results[plain].Stats().HostedSatellites.Load() + results[agg].Stats().HostedSatellites.Load()
			folded, byPlain := results[agg].Stats().FoldedRows.Load(), results[plain].Stats().FoldedRows.Load()
			if installed := arr.why == core.HandOverInstalled; installed != (folded > 0) || installed == (shared > 0) || byPlain != 0 {
				t.Errorf("P=%d, %s: %d rows folded for the aggregate, %d for the plain scan, %d satellites hosted", par, arr.how, folded, byPlain, shared)
			}
			// (a late arrival is owed the pages it missed: the scan wraps; one
			// worker runs the two scans one after the other)
			if reads := db.DiskStats().ByFile["tbl:orders"]; reads < pages || (reads >= 2*pages && arr.opts.WorkersPerEngine != 1) {
				t.Errorf("P=%d, %s: %d blocks of orders read for the statements of a %d-page table: no page stream was shared", par, arr.how, reads, pages)
			}
		}
	}
}

// skOrder is the model's copy of one row of o (id INT, k INT, v FLOAT).
type skOrder struct {
	k int64
	v float64 // quarters: sums are exact in any order
}

// skBesideAWriter is TestScansBesideAWriter's shape for statements over
// o(id INT, k INT, v FLOAT), which it creates with 3 000 rows in db: a writer
// commits UPDATEs that change the key, DELETEs and INSERTs, one for each
// statement draw returns, and every reply must equal the statement's answer on
// the model of the table as of one commit between the last acknowledged before
// the statement was sent and the last begun before its reply was complete
// (Berkholz et al.: what a reader is handed equals recomputation from the
// stored rows at one instant). Statements alternate parallelism 1 and 4, with
// OSP and without.
func skBesideAWriter(t *testing.T, db *qpipe.DB, rng *rand.Rand, draw func(n int) (text string, answer func(map[int64]skOrder) []string)) {
	t.Helper()
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE o (id INT, k INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	model := map[int64]skOrder{}
	var orows []qpipe.Row
	for id := int64(0); id < 3000; id++ {
		r := skOrder{k: int64(rng.Intn(220)), v: float64(rng.Intn(400)) / 4}
		model[id] = r
		orows = append(orows, qpipe.R(id, r.k, r.v))
	}
	if err := db.Load("o", orows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "ANALYZE"); err != nil {
		t.Fatal(err)
	}

	const commits = 90
	history := make([]atomic.Pointer[map[int64]skOrder], commits+1)
	history[0].Store(&model)
	var begun, acked atomic.Int64
	release, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(7))
		nextID := int64(3000)
		for i := 1; i <= commits; i++ {
			if _, ok := <-release; !ok {
				return
			}
			next := make(map[int64]skOrder, len(model))
			for id, r := range *history[i-1].Load() {
				next[id] = r
			}
			var stmt string
			switch i % 3 {
			case 0: // rows change the key they join on, and group by
				from := int64(wrng.Intn(220))
				stmt = fmt.Sprintf("UPDATE o SET k = k + 1, v = v + 0.25 WHERE k = %d", from)
				for id, r := range next {
					if r.k == from {
						next[id] = skOrder{r.k + 1, r.v + 0.25}
					}
				}
			case 1:
				lo := int64(wrng.Intn(3000))
				stmt = fmt.Sprintf("DELETE FROM o WHERE id BETWEEN %d AND %d", lo, lo+9)
				for id := lo; id <= lo+9; id++ {
					delete(next, id)
				}
			default:
				r := skOrder{k: int64(wrng.Intn(220)), v: float64(wrng.Intn(400)) / 4}
				stmt = fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %s)", nextID, r.k, apFloat(r.v))
				next[nextID] = r
				nextID++
			}
			history[i].Store(&next)
			begun.Store(int64(i))
			if _, err := db.Exec(ctx, stmt); err != nil {
				t.Errorf("%s: %v", stmt, err)
				return
			}
			acked.Store(int64(i))
		}
	}()

	for n := 0; n < commits && !t.Failed(); n++ {
		text, answer := draw(n)
		opts := []qpipe.QueryOption{qpipe.WithParallelism(1 + 3*(n%2))}
		if n%4 >= 2 {
			opts = append(opts, qpipe.WithoutOSP())
		}
		first := acked.Load()
		select {
		case release <- struct{}{}:
		case <-writerDone:
			continue
		}
		got, _ := skAnswer(t, db, text, opts...)
		last := begun.Load()
		matched := false
		for i := first; i <= last && !matched; i++ {
			matched = equalRows(got, answer(*history[i].Load()))
		}
		if !matched {
			t.Fatalf("%s: reply %v matches no table state between commits %d and %d (%v then, %v now)",
				text, got, first, last, answer(*history[first].Load()), answer(*history[last].Load()))
		}
	}
	close(release)
	<-writerDone
}

// TestNarrowedJoinBesideAWriter is TestScansBesideAWriter's arm for the
// sideways keys: the rows the scan left unbuilt are rows the state the reply
// equals does not join.
func TestNarrowedJoinBesideAWriter(t *testing.T) {
	db := apOpen(t, qpipe.Options{})
	if _, err := db.Exec(context.Background(), "CREATE TABLE c (cid INT, seg INT)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261001))
	seg := map[int64]int64{}
	var crows []qpipe.Row
	for cid := int64(0); cid < 200; cid++ {
		seg[cid] = int64(rng.Intn(4))
		crows = append(crows, qpipe.R(cid, seg[cid]))
	}
	if err := db.Load("c", crows); err != nil {
		t.Fatal(err)
	}
	text := "SELECT seg, sum(v) AS s, count(*) AS n FROM c JOIN o ON cid = k WHERE seg = 1 GROUP BY seg"
	answer := func(state map[int64]skOrder) []string {
		n, sum := int64(0), 0.0
		for _, r := range state {
			if s, ok := seg[r.k]; ok && s == 1 {
				n, sum = n+1, sum+r.v
			}
		}
		if n == 0 {
			return nil
		}
		return []string{fmt.Sprint(qpipe.Row{qpipe.IntValue(1), qpipe.FloatValue(sum), qpipe.IntValue(n)})}
	}
	skBesideAWriter(t, db, rng, func(n int) (string, func(map[int64]skOrder) []string) {
		if n == 0 { // the tables are loaded and analyzed
			if side := apBuildSide(cpPlan(t, db, text)); side != "c" {
				t.Fatalf("the join builds on %s", side)
			}
		}
		return text, answer
	})
	if db.Stats().KeyFilters == 0 {
		t.Error("no join handed its keys to its scan: the test did not exercise the mechanism")
	}
}

// TestFoldedAggregateBesideAWriter is the same arm for the fold: scalar and
// grouped aggregates the scan adds up on its pages — the pages of one
// committed state, whatever the writer does meanwhile.
func TestFoldedAggregateBesideAWriter(t *testing.T) {
	db := apOpen(t, qpipe.Options{})
	rng := rand.New(rand.NewSource(20261003))
	skBesideAWriter(t, db, rng, func(n int) (string, func(map[int64]skOrder) []string) {
		bound := int64(rng.Intn(240) - 10) // now and then below every key
		if n%2 == 0 {
			return fmt.Sprintf("SELECT count(*) AS n, sum(v * 4.0) AS quarters, avg(v) AS a FROM o WHERE k < %d", bound),
				func(state map[int64]skOrder) []string {
					n, quarters, sum := int64(0), 0.0, 0.0
					for _, r := range state {
						if r.k < bound {
							n, quarters, sum = n+1, quarters+r.v*4, sum+r.v
						}
					}
					avg := 0.0
					if n > 0 {
						avg = sum / float64(n)
					}
					return []string{fmt.Sprint(qpipe.Row{qpipe.IntValue(n), qpipe.FloatValue(quarters), qpipe.FloatValue(avg)})}
				}
		}
		return fmt.Sprintf("SELECT k, count(*) AS n, sum(v) AS s, min(id) AS first, max(v) AS hi FROM o WHERE k >= %d GROUP BY k", bound),
			func(state map[int64]skOrder) []string {
				type group struct {
					n, first int64
					s, hi    float64
				}
				groups := map[int64]group{}
				for id, r := range state {
					if r.k < bound {
						continue
					}
					g, seen := groups[r.k]
					if !seen {
						g = group{first: id, hi: r.v}
					}
					groups[r.k] = group{g.n + 1, min(g.first, id), g.s + r.v, max(g.hi, r.v)}
				}
				var out []qpipe.Row
				for k, g := range groups {
					out = append(out, qpipe.Row{qpipe.IntValue(k), qpipe.IntValue(g.n), qpipe.FloatValue(g.s), qpipe.IntValue(g.first), qpipe.FloatValue(g.hi)})
				}
				return apSorted(out)
			}
	})
	if st := db.Stats(); st.Folds == 0 {
		t.Errorf("no aggregate handed its accumulators to its scan %v: the test did not exercise the mechanism", st.HandOvers)
	}
}
