package qpipe_test

import (
	"context"
	"fmt"
	"maps"
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

// skReasons is what became of a statement's hand-overs, by reason; reasons it
// does not name did not occur.
type skReasons map[core.HandOver]int64

// skHandOvers holds a finished statement's own hand-over counters to one of
// the outcomes it may have (more than one where the scheduler decides between
// them) and returns the one it had.
func skHandOvers(t *testing.T, how string, res *qpipe.Result, may ...skReasons) skReasons {
	t.Helper()
	got := skReasons{}
	for why := range res.Stats().HandOvers {
		if n := res.Stats().HandOvers[why].Load(); n != 0 {
			got[core.HandOver(why)] = n
		}
	}
	for _, want := range may {
		if maps.Equal(got, want) {
			return want
		}
	}
	t.Errorf("%s: hand-overs ended %v, want %v", how, got, may)
	return got
}

// TestSidewaysKeysInstallOnlyWhereTheyHelp walks the cases around the
// mechanism: what installs a filter, what does not and for which reason —
// read from the statement's own counters —, and that the answer is the
// iterator engine's either way.
func TestSidewaysKeysInstallOnlyWhereTheyHelp(t *testing.T) {
	db := skOpen(t, qpipe.Options{PoolPages: 4096})
	asWritten := skOpen(t, qpipe.Options{DisableOptimizer: true})
	bigPages := cpHeapPages(t, db, "big")
	installed := skReasons{core.HandOverInstalled: 1}

	run := func(db *qpipe.DB, text string, want skReasons, opts ...qpipe.QueryOption) *qpipe.Result {
		t.Helper()
		got, res := skAnswer(t, db, text, opts...)
		if want := skVolcano(t, db, cpPlan(t, db, text)); !equalRows(got, want) {
			t.Errorf("%s: %d rows, the iterator engine has %d\ngot  %.200v\nwant %.200v", text, len(got), len(want), got, want)
		}
		skHandOvers(t, text, res, want)
		return res
	}
	built := func(q *qpipe.Query, how string, want skReasons) {
		t.Helper()
		res, err := q.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.All()
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := apSorted(rows), skVolcano(t, asWritten, p); !equalRows(got, want) || len(got) == 0 {
			t.Errorf("%s: %v, the iterator engine has %v", how, got, want)
		}
		skHandOvers(t, how, res, want)
	}

	// The ordinary case: five build rows against 70 000.
	join := "SELECT p, q FROM small JOIN big ON small.y = big.x"
	if res := run(db, join, installed); res.Stats().KeyFilterRows.Load() < 60000 {
		t.Errorf("%s: %d rows left unbuilt, want most of 70 000", join, res.Stats().KeyFilterRows.Load())
	}
	for _, opt := range []qpipe.QueryOption{qpipe.WithoutOSP(), qpipe.WithParallelism(4), qpipe.WithBatchSize(7)} {
		run(db, join, installed, opt)
	}
	// An empty build side joins nothing, and the probe is still read, once.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	db.ResetDiskStats()
	empty := "SELECT p, q FROM small JOIN big ON small.y = big.x WHERE q > 99"
	if res := run(db, empty, installed); res.Stats().KeyFilterRows.Load() < 60000 {
		t.Errorf("%s: %d rows left unbuilt", empty, res.Stats().KeyFilterRows.Load())
	}
	// (the reference run on the iterator engine found the pages in the pool)
	if reads := db.DiskStats().ByFile["tbl:big"]; reads != bigPages {
		t.Errorf("%s: %d blocks of big read, want its %d pages once (%v)", empty, reads, bigPages, db.DiskStats().ByFile)
	}
	// A TEXT key is hashed where it lies, like any other: 429 tags narrow the
	text := "SELECT v, w FROM tags JOIN names ON m = n"
	// scan of 3 000 names (of which most pages are out before the build ends).
	if res := run(db, text, installed); apBuildSide(cpPlan(t, db, text)) != "tags" {
		t.Errorf("%s builds on %s", text, apBuildSide(cpPlan(t, db, text)))
	} else {
		t.Logf("%s: %d rows left unbuilt", text, res.Stats().KeyFilterRows.Load())
	}
	// Nothing is installed for a build side too big to stay in memory (the plan
	// as written builds on big) — the fold of an aggregate above such a join
	// gets as far as the join and no further —, nor by a join whose probe side
	// is not a scan, whatever the size of its build side: of the two joins of
	// each statement below only the inner one has a scan to narrow.
	run(asWritten, "SELECT p, q FROM big JOIN small ON big.x = small.y", skReasons{core.HandOverBuildTooLarge: 1})
	run(asWritten, "SELECT count(*) AS n, sum(q) AS s FROM big JOIN small ON big.x = small.y", skReasons{core.HandOverInstalled: 1, core.HandOverBuildTooLarge: 1})
	inner := func() *qpipe.Query { return asWritten.Scan("tags").Join(asWritten.Scan("names"), "w", "v") }
	notAScan := skReasons{core.HandOverInstalled: 1, core.HandOverNotAScan: 1}
	built(asWritten.Scan("small").Join(inner(), "q", "w"), "join of joins", notAScan)
	built(asWritten.Scan("big").Join(inner(), "x", "w"), "join of joins, the outer build side too big", notAScan)
}

// skArrival scripts one arrival order of two statements: a, which hands
// something down, and b, a plain statement one of whose packets has the
// signature of the packet a changes. Every arrival is a state, not a moment:
// each of held is sent and one batch of its result read — in batches of 16
// rows, so that even a small table's scan blocks on its full result buffer: it
// holds what it scans until the test reads on —, then first, then, once ready
// holds of a's result, the other; then everything is read to the end.
type skArrival struct {
	how   string
	opts  qpipe.Options
	held  []string                   // a or b among them holds itself
	first string                     // a or b
	ready func(a *qpipe.Result) bool // nil: nothing to wait for
	may   []skReasons                // what may become of a's hand-overs
}

// skHeld reports whether a statement whose result is not being read has come
// to rest: every one of its packets has finished or waits to put into a full
// buffer — down to the scanner, which then settles no page for anybody until
// the test reads on.
func skHeld(res *qpipe.Result) bool {
	for _, b := range qpipe.QueryOf(res).Buffers() {
		if s := b.Snapshot(); !s.PutBlocked && !s.Closed {
			return false
		}
	}
	return true
}

// skPacket is the packet of res's plan node nth in pre-order: the root is 0,
// the last the rightmost leaf (a hash join's probe scan).
func skPacket(res *qpipe.Result, nth int) *core.Packet {
	pkts := qpipe.QueryOf(res).Packets()
	if nth < 0 {
		nth += len(pkts)
	}
	return pkts[nth]
}

// skArrivals runs every arrival at parallelism 1 and 4 on a database of its
// own (the benchmark's tables, a pool of 16 pages): both answers must be the
// iterator engine's, a's hand-overs one of the outcomes the arrival allows
// (check then looks at the two results' other counters), and table read less
// than twice.
func skArrivals(t *testing.T, a, b, table string, arrivals []skArrival, check func(how string, arr skArrival, outcome skReasons, ra, rb *qpipe.Result)) {
	t.Helper()
	ctx := context.Background()
	for _, arr := range arrivals {
		arr.opts.PoolPages = 16
		db := apBenchDB(t, arr.opts, false)
		texts := append(append([]string(nil), arr.held...), a, b)
		want := map[string][]string{}
		for _, text := range texts {
			want[text] = skVolcano(t, db, cpPlan(t, db, text))
		}
		pages := cpHeapPages(t, db, table)
		for _, par := range []int{1, 4} {
			how := fmt.Sprintf("P=%d, %s", par, arr.how)
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			db.ResetDiskStats()
			results, answers := map[string]*qpipe.Result{}, map[string][]qpipe.Row{}
			send := func(text string, opts ...qpipe.QueryOption) *qpipe.Result {
				t.Helper()
				if results[text] == nil {
					res, err := db.Query(ctx, text, append(opts, qpipe.WithParallelism(par))...)
					if err != nil {
						t.Fatal(err)
					}
					results[text] = res
				}
				return results[text]
			}
			for _, text := range arr.held {
				res := send(text, qpipe.WithBatchSize(16))
				taken, err := res.Next()
				if err != nil {
					t.Fatal(err)
				}
				answers[text] = append([]qpipe.Row(nil), taken...)
				for !skHeld(res) {
					time.Sleep(100 * time.Microsecond)
				}
			}
			send(arr.first)
			for deadline := time.Now().Add(20 * time.Second); arr.ready != nil && !arr.ready(send(a)); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: not ready after 20 s\n%s", how, db.Engine().Runtime().DumpState())
				}
			}
			send(a)
			send(b)
			var wg sync.WaitGroup
			var mu sync.Mutex
			for text, res := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rows, err := res.All()
					if err != nil {
						t.Errorf("%s: %s: %v", how, text, err)
					}
					mu.Lock()
					answers[text] = append(answers[text], rows...)
					mu.Unlock()
				}()
			}
			wg.Wait()
			for text := range results {
				if got := apSorted(answers[text]); !equalRows(got, want[text]) {
					t.Errorf("%s: %s returned %d rows, want %d", how, text, len(got), len(want[text]))
				}
			}
			check(how, arr, skHandOvers(t, how, results[a], arr.may...), results[a], results[b])
			// (a late arrival is owed the pages it missed: the scan wraps)
			if reads := db.DiskStats().ByFile["tbl:"+table]; reads < pages || reads >= 2*pages {
				t.Errorf("%s: %d blocks of %s read for the statements of a %d-page table: no page stream was shared", how, reads, table, pages)
			}
		}
	}
}

// skHandedProbe reports whether the probe scan of a's join — its plan's
// rightmost leaf — has been handed something: it is sealed then, and no packet
// can be absorbed by it any more.
func skHandedProbe(a *qpipe.Result) bool { return skPacket(a, -1).Handed() != nil }

// TestNarrowedScanBesideAPlainOne pins the hazard of changing what a scan
// packet produces: the benchmark's join_groupby probes orders through a scan of
// cols=[cust amount], which is the scan of `SELECT cust, amount FROM orders` to
// the letter — same signature. Whether the join above it is read by a
// projection and narrows the scan to its build keys, or by the aggregate and
// passes that one's fold on, either the two packets share one output, and then
// the hand-over is refused and rows flow, or the scan is handed what it is
// handed and the plain statement rides the same circular scan as a consumer of
// its own. In every arrival order the plain statement gets every row, and the
// table is read once.
func TestNarrowedScanBesideAPlainOne(t *testing.T) {
	narrowed, folded := "SELECT segment, amount FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1", apBenchScans[2]
	plain := "SELECT cust, amount FROM orders"
	sigs := apBenchDB(t, qpipe.Options{}, false)
	for _, join := range []string{narrowed, folded} {
		if a, b := apLeaves(cpPlan(t, sigs, join))[1].Signature(), apLeaves(cpPlan(t, sigs, plain))[0].Signature(); a != b {
			t.Fatalf("the probe scan and the plain one differ: %s, %s", a, b)
		}
	}
	for _, join := range []string{narrowed, folded} {
		// The join hands down what it has when its build ends: its keys, or the
		// fold that reached it — unless the aggregate's packet started later
		// than that (the scheduler decides): then its keys, and the fold is late.
		handed, refused := []skReasons{{core.HandOverInstalled: 1}}, []skReasons{{core.HandOverSatellite: 1}}
		if join == folded {
			handed = append(handed, skReasons{core.HandOverInstalled: 1, core.HandOverLate: 1})
			refused = []skReasons{{core.HandOverInstalled: 1, core.HandOverSatellite: 1}, {core.HandOverSatellite: 1, core.HandOverLate: 1}}
		}
		outcomes := map[string]int{}
		skArrivals(t, join, plain, "orders", []skArrival{
			{"plain held inside its replay window, join", qpipe.Options{ReplayWindow: -1}, []string{plain}, plain, nil, refused},
			{"plain held past its replay window, join", qpipe.Options{ReplayWindow: 1}, []string{plain}, plain, nil, handed},
			{"orders pinned, join, its scan handed what the join has, plain", qpipe.Options{ReplayWindow: 1}, []string{"SELECT oid FROM orders"}, join, skHandedProbe, handed},
		}, func(how string, _ skArrival, outcome skReasons, ra, rb *qpipe.Result) {
			shared := ra.Stats().HostedSatellites.Load()+rb.Stats().HostedSatellites.Load() > 0
			unbuilt, added := ra.Stats().KeyFilterRows.Load(), ra.Stats().FoldedRows.Load()
			handedFold := join == folded && outcome[core.HandOverLate]+outcome[core.HandOverSatellite] == 0
			if shared != (outcome[core.HandOverSatellite] == 1) || (unbuilt > 0) == shared || (added > 0) != handedFold {
				t.Errorf("%s: %v: one output shared %v, %d rows left unbuilt, %d pairs added up", how, outcome, shared, unbuilt, added)
			}
			if n := rb.Stats().KeyFilterRows.Load() + rb.Stats().FoldedRows.Load(); n != 0 {
				t.Errorf("%s: %d rows of the plain scan were left unbuilt", how, n)
			}
			outcomes[fmt.Sprint(outcome)]++
		})
		t.Log(join, outcomes)
		if join == folded && outcomes[fmt.Sprint(handed[0])] == 0 {
			t.Errorf("no arrival had the fold reach the scan: %v", outcomes)
		}
	}
}

// TestFoldedScanBesideAPlainOne is the same hazard for the fold: the
// benchmark's scan_agg reads orders through the scan of `SELECT amount FROM
// orders WHERE amount < 500` to the letter, and an aggregate that hands its
// accumulators down gets no rows — which a statement sharing that scan
// packet's output would then not get either.
//
//   - The plain scan, held inside its replay window, then the aggregate: the
//     aggregate's scan is absorbed as the plain one's satellite, the hand-over
//     is refused (reason satellite) and the aggregate adds rows.
//   - The plain scan, held past its window, then the aggregate: its scan rides
//     the plain one's circular scan as a consumer of its own, and folds.
//   - A bare scan of another signature, held, pins the table's scanner; the
//     aggregate, its fold seen installed; then the plain scan: both ride the
//     pinned scan, each a consumer of its own.
//
// In every order both answers are the iterator engine's, and the table is
// read less than twice.
func TestFoldedScanBesideAPlainOne(t *testing.T) {
	agg, plain := apBenchScans[0], "SELECT amount FROM orders WHERE amount < 500"
	sigs := apBenchDB(t, qpipe.Options{}, false)
	if a, b := apLeaves(cpPlan(t, sigs, agg))[0].Signature(), apLeaves(cpPlan(t, sigs, plain))[0].Signature(); a != b {
		t.Fatalf("the aggregate's scan and the plain one differ: %s, %s", a, b)
	}
	installed := []skReasons{{core.HandOverInstalled: 1}}
	seenInstalled := func(a *qpipe.Result) bool { return a.Stats().HandOvers[core.HandOverInstalled].Load() == 1 }
	skArrivals(t, agg, plain, "orders", []skArrival{
		{"plain held inside its replay window, aggregate", qpipe.Options{ReplayWindow: -1}, []string{plain}, plain, nil, []skReasons{{core.HandOverSatellite: 1}}},
		{"plain held past its replay window, aggregate", qpipe.Options{ReplayWindow: 1}, []string{plain}, plain, nil, installed},
		{"orders pinned, aggregate, its fold installed, plain", qpipe.Options{}, []string{"SELECT oid FROM orders"}, agg, seenInstalled, installed},
	}, func(how string, _ skArrival, outcome skReasons, ra, rb *qpipe.Result) {
		shared := rb.Stats().HostedSatellites.Load() + ra.Stats().HostedSatellites.Load()
		folded, byPlain := ra.Stats().FoldedRows.Load(), rb.Stats().FoldedRows.Load()
		if installed := outcome[core.HandOverInstalled] == 1; installed != (folded > 0) || installed == (shared > 0) || byPlain != 0 {
			t.Errorf("%s: %d rows folded for the aggregate, %d for the plain scan, %d satellites hosted", how, folded, byPlain, shared)
		}
	})
}

// skJoinNode is the (one) hash join of text's plan.
func skJoinNode(t *testing.T, db *qpipe.DB, text string) plan.Node {
	t.Helper()
	var join plan.Node
	plan.Walk(cpPlan(t, db, text), func(n plan.Node) {
		if _, ok := n.(*plan.HashJoin); ok {
			join = n
		}
	})
	return join
}

// TestFoldedJoinBesideAPlainOne is the hazard one level up: a join packet that
// takes its reader's fold builds no probe row, so its output is partial — the
// rows that reached it before the hand-over — and `SELECT segment, amount FROM
// customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1` has that
// join's signature to the letter.
//
//   - The plain join, held by its unread result inside its replay window, then
//     the aggregate: the aggregate's join is absorbed as the plain one's
//     satellite, the fold is refused (satellite) and the aggregate adds rows.
//   - The plain join, held past its window, then the aggregate: its join runs
//     on its own, its probe scan rides the plain one's held circular scan, and
//     every row of orders is folded, left out or built (the rows that were out
//     before the fold landed: how many depends on the scheduler, so it is not
//     asserted).
//   - customers pinned by a held scan of another signature, so no build ends;
//     the aggregate, until its join packet shows the fold; then the plain join,
//     which finds that packet running and must not become the satellite of a
//     join that will stop producing: it runs its own, and gets every row.
//   - orders pinned the same way, so no probe row flows; the aggregate, until
//     its join has ended its build, looked, and what became of the fold is
//     counted — the scheduler decides whether the aggregate's packet handed
//     it over before the look (installed) or after (late: the join found
//     nothing, handed its keys down instead, and the fold is refused under
//     that reason and never counted installed); then the plain join. It finds
//     the aggregate's join in progress with nothing produced: sealed by the
//     fold, and the plain join runs its own; or, after a late fold, sealed by
//     nothing, and the plain join is its satellite. Each probe scan rides the
//     pinned scanner of orders, and no join waits behind another.
//
// In every order the answers are the iterator engine's.
func TestFoldedJoinBesideAPlainOne(t *testing.T) {
	agg, plain := apBenchScans[2], "SELECT segment, amount FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1"
	sigs := apBenchDB(t, qpipe.Options{}, false)
	if a, b := skJoinNode(t, sigs, agg).Signature(), skJoinNode(t, sigs, plain).Signature(); a != b {
		t.Fatalf("the aggregate's join and the plain one differ: %s, %s", a, b)
	}
	matches, orders := int64(len(skVolcano(t, sigs, cpPlan(t, sigs, plain)))), int64(20000)
	pin := "SELECT balance FROM customers"
	foldInJoin := func(a *qpipe.Result) bool {
		return skPacket(a, 1).Handed() != nil && skPacket(a, -1).Out.Produced() > 1
	}
	// The join has looked: its probe scan holds its keys and the fold was
	// refused as late, or holds the fold.
	joinLooked := func(a *qpipe.Result) bool {
		_, keys := skPacket(a, -1).Handed().(*core.KeyFilter)
		return skHandedProbe(a) && (!keys || a.Stats().HandOvers[core.HandOverLate].Load() == 1)
	}
	folds := skReasons{core.HandOverInstalled: 1}
	late := skReasons{core.HandOverInstalled: 1, core.HandOverLate: 1} // the keys went in, the fold came after
	skArrivals(t, agg, plain, "orders", []skArrival{
		{"plain join held inside its replay window, aggregate", qpipe.Options{ReplayWindow: -1}, []string{plain}, plain, nil, []skReasons{{core.HandOverSatellite: 1}}},
		{"plain join held past its replay window, aggregate, its probe scan handed what the join has", qpipe.Options{ReplayWindow: 1}, []string{plain}, plain, skHandedProbe, []skReasons{folds, late}},
		{"customers pinned, aggregate, the fold in its join's slot, plain join", qpipe.Options{ReplayWindow: 1}, []string{pin}, agg, foldInJoin, []skReasons{folds}},
		{"orders pinned, aggregate until its join has looked, plain join", qpipe.Options{}, []string{"SELECT oid FROM orders"}, agg, joinLooked, []skReasons{folds, late}},
	}, func(how string, arr skArrival, outcome skReasons, ra, rb *qpipe.Result) {
		added, unbuilt := ra.Stats().FoldedRows.Load(), ra.Stats().KeyFilterRows.Load()
		shared := ra.Stats().HostedSatellites.Load()+rb.Stats().HostedSatellites.Load() > 0
		throughJoin := maps.Equal(outcome, folds)
		// A late fold seals nothing: a plain join sent after it is the
		// satellite of the aggregate's join, which has produced nothing.
		afterLate := arr.first == agg && outcome[core.HandOverLate] > 0
		if (added > 0) != throughJoin || shared != (outcome[core.HandOverSatellite]+outcome[core.HandOverEverHosted] > 0 || afterLate) {
			t.Errorf("%s: %v: %d pairs added up, one join's output shared %v", how, outcome, added, shared)
		}
		if !throughJoin {
			return
		}
		// Every row of orders was built, a pair added up (cid is unique) or left
		// out by the bitmap or the compare; every match was a pair added up or a
		// row the join probed. How many were built before the fold landed is the
		// scheduler's to decide: only the two sums are the state's to guarantee.
		built, joined := skPacket(ra, -1).Out.Produced(), skPacket(ra, 1).Out.Produced()
		if added+joined != matches || added+unbuilt+built != orders {
			t.Errorf("%s: %d pairs added up, %d rows left out, %d built of which %d joined: want the %d matches and %d rows between them",
				how, added, unbuilt, built, joined, matches, orders)
		}
	})
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

// skSegments creates c(cid INT, seg INT), 200 customers for o's keys to join,
// and returns each one's segment.
func skSegments(t *testing.T, db *qpipe.DB, rng *rand.Rand) map[int64]int64 {
	t.Helper()
	if _, err := db.Exec(context.Background(), "CREATE TABLE c (cid INT, seg INT)"); err != nil {
		t.Fatal(err)
	}
	seg := map[int64]int64{}
	var crows []qpipe.Row
	for cid := int64(0); cid < 200; cid++ {
		seg[cid] = int64(rng.Intn(4))
		crows = append(crows, qpipe.R(cid, seg[cid]))
	}
	if err := db.Load("c", crows); err != nil {
		t.Fatal(err)
	}
	return seg
}

// skJoinBesideAWriter runs text, a join of c and o that builds on c, beside
// the writer, every reply held to answer.
func skJoinBesideAWriter(t *testing.T, db *qpipe.DB, rng *rand.Rand, text string, answer func(map[int64]skOrder) []string) {
	t.Helper()
	skBesideAWriter(t, db, rng, func(n int) (string, func(map[int64]skOrder) []string) {
		if n == 0 { // the tables are loaded and analyzed
			if side := apBuildSide(cpPlan(t, db, text)); side != "c" {
				t.Fatalf("the join builds on %s", side)
			}
		}
		return text, answer
	})
}

// TestNarrowedJoinBesideAWriter is TestScansBesideAWriter's arm for the
// sideways keys: the rows the scan left unbuilt are rows the state the reply
// equals does not join.
func TestNarrowedJoinBesideAWriter(t *testing.T) {
	db := apOpen(t, qpipe.Options{})
	rng := rand.New(rand.NewSource(20261001))
	seg := skSegments(t, db, rng)
	skJoinBesideAWriter(t, db, rng, "SELECT seg, v FROM c JOIN o ON cid = k WHERE seg = 1", func(state map[int64]skOrder) []string {
		var out []qpipe.Row
		for _, r := range state {
			if s, ok := seg[r.k]; ok && s == 1 {
				out = append(out, qpipe.Row{qpipe.IntValue(1), qpipe.FloatValue(r.v)})
			}
		}
		return apSorted(out)
	})
	if db.Stats().KeyFilters == 0 {
		t.Error("no join handed its keys to its scan: the test did not exercise the mechanism")
	}
}

// TestFoldedJoinBesideAWriter is the arm for the fold that goes through the
// join: the pairs the scan added up are the pairs of one committed state of o,
// whatever the writer does meanwhile (Berkholz et al.: every reply equals
// recomputation at one commit between send and reply).
func TestFoldedJoinBesideAWriter(t *testing.T) {
	db := apOpen(t, qpipe.Options{})
	rng := rand.New(rand.NewSource(20261004))
	seg := skSegments(t, db, rng)
	skJoinBesideAWriter(t, db, rng, "SELECT seg, sum(v) AS s, count(*) AS n, min(k) AS lo FROM c JOIN o ON cid = k WHERE seg = 1 GROUP BY seg", func(state map[int64]skOrder) []string {
		n, sum, lo := int64(0), 0.0, int64(1<<62)
		for _, r := range state {
			if s, ok := seg[r.k]; ok && s == 1 {
				n, sum, lo = n+1, sum+r.v, min(lo, r.k)
			}
		}
		if n == 0 {
			return nil
		}
		return []string{fmt.Sprint(qpipe.Row{qpipe.IntValue(1), qpipe.FloatValue(sum), qpipe.IntValue(n), qpipe.IntValue(lo)})}
	})
	// (Folds counts the folds a join's packet took; FoldedRows is per query)
	if st := db.Stats(); st.Folds == 0 {
		t.Errorf("no aggregate handed its accumulators to its join %v: the test did not exercise the mechanism", st.HandOvers)
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

// skKeyShapes makes fact (k INT, kf FLOAT, big INT, bigf FLOAT, g INT,
// v FLOAT) of 3 000 rows — keys from -10 to 29, as INTs and as halves; numbers
// at and around ±2^53, as INTs and as FLOATs — beside small build sides of
// each shape of join key: INTs with negatives, each key twice (dints); DATEs
// (ddates); INTs too far apart for a direct table (dsparse); INTs at 2^53
// (dedge); and INTs at -2^53 and 2^53 (dwide).
func skKeyShapes(t *testing.T) *qpipe.DB {
	t.Helper()
	db, err := qpipe.Open(qpipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	ctx := context.Background()
	if _, err := db.Exec(ctx, `CREATE TABLE fact (k INT, kf FLOAT, big INT, bigf FLOAT, g INT, v FLOAT);
		CREATE TABLE dints (k INT, tag INT); CREATE TABLE ddates (k DATE, tag INT); CREATE TABLE dsparse (k INT, tag INT);
		CREATE TABLE dedge (k INT, tag INT); CREATE TABLE dwide (k INT, tag INT)`); err != nil {
		t.Fatal(err)
	}
	const p53 = 1 << 53
	fact := make([]qpipe.Row, 3000)
	for i := range fact {
		fact[i] = qpipe.R(i%40-10, float64(i%80)/2, []int64{p53 - 2, p53 - 1, p53, p53 + 1, -p53, -p53 - 1}[i%6],
			[]float64{p53 - 2, p53 - 1, p53, p53 + 2, -p53, 0.5}[i%6], i%7, float64(i%13)/4)
	}
	var dints []qpipe.Row
	for i, k := range []int{-3, 0, 2, 25, -1} {
		dints = append(dints, qpipe.R(k, i), qpipe.R(k, 10+i))
	}
	tables := map[string][]qpipe.Row{
		"fact": fact, "dints": dints,
		"ddates":  {{qpipe.DateValue(3), qpipe.IntValue(1)}, {qpipe.DateValue(7), qpipe.IntValue(2)}, {qpipe.DateValue(-2), qpipe.IntValue(3)}},
		"dsparse": {qpipe.R(0, 1), qpipe.R(5, 2), qpipe.R(1<<40, 3)},
		"dedge":   {qpipe.R(p53-1, 1), qpipe.R(p53, 2)},
		"dwide":   {qpipe.R(-p53, 1), qpipe.R(p53, 2)},
	}
	for name, rows := range tables {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(ctx, "ANALYZE"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestJoinKeyShapes: a hash join hands its probe scan its build keys as a
// direct table when they are INTs or DATEs within ±2^53 over a short span, and
// as a bitmap otherwise, and an aggregate's fold through the join finds its
// pairs by either. For each shape of key — duplicates and negatives, DATE
// keys probed by INTs, FLOAT probes of integral and fractional values, a span
// too wide, numbers at ±2^53 — the join read by a projection, the aggregate
// over it grouped by a build column and by a probe column, and plain
// aggregates of the probe table grouped by an INT and by a FLOAT, at
// parallelism 1 and 4, answer as the iterator engine does; the join hands
// down the form the shape calls for; every row of fact is left out, built or
// folded once for each build row of its key; and the statement's hand-overs
// end as they always did.
func TestJoinKeyShapes(t *testing.T) {
	db := skKeyShapes(t)
	const facts = 3000
	installed, late := skReasons{core.HandOverInstalled: 1}, skReasons{core.HandOverInstalled: 1, core.HandOverLate: 1}
	// check runs text and holds it to the iterator engine, to the hand-overs it
	// may have and, when it folds (a fold installed and not late), to having
	// added pairs up.
	check := func(how, text string, par int, dup int64, folds bool, may ...skReasons) *qpipe.Result {
		t.Helper()
		got, res := skAnswer(t, db, text, qpipe.WithParallelism(par))
		if want := skVolcano(t, db, cpPlan(t, db, text)); !equalRows(got, want) || len(got) == 0 {
			t.Errorf("%s: %s: %v, the iterator engine has %v", how, text, got, want)
		}
		outcome := skHandOvers(t, how+": "+text, res, may...)
		unbuilt, added, built := res.Stats().KeyFilterRows.Load(), res.Stats().FoldedRows.Load(), skPacket(res, -1).Out.Produced()
		if folded := folds && maps.Equal(outcome, installed); folded != (added > 0) {
			t.Errorf("%s: %s: %v, %d pairs added up", how, text, outcome, added)
		}
		if added%dup != 0 || unbuilt+added/dup+built != facts {
			t.Errorf("%s: %s: %d rows left out, %d pairs added up (%d a row), %d built: want the %d rows of fact between them", how, text, unbuilt, added, dup, built, facts)
		}
		return res
	}
	for _, c := range []struct {
		name, dim, probe string
		direct           bool
		dup              int64 // build rows of every key a probe row matches
	}{
		{"INT keys, each twice, negatives among them", "dints", "k", true, 2},
		{"DATE keys probed by INTs", "ddates", "k", true, 1},
		{"INT keys probed by FLOATs, integral and fractional", "dints", "kf", true, 2},
		{"INT keys over a span too wide", "dsparse", "k", false, 1},
		{"INT keys at 2^53 probed by INTs around it", "dedge", "big", true, 1},
		{"INT keys at 2^53 probed by FLOATs around it", "dedge", "bigf", true, 1},
		{"INT keys at -2^53 and 2^53", "dwide", "big", false, 1},
	} {
		join := fmt.Sprintf("SELECT d.tag, f.v FROM %s d JOIN fact f ON d.k = f.%s", c.dim, c.probe)
		if side := apBuildSide(cpPlan(t, db, join)); side != c.dim {
			t.Fatalf("%s: the join builds on %s", c.name, side)
		}
		for _, par := range []int{1, 4} {
			how := fmt.Sprintf("P=%d, %s", par, c.name)
			res := check(how, join, par, 1, false, installed)
			if keys, _ := skPacket(res, -1).Handed().(*core.KeyFilter); keys == nil || (keys.Dense != nil) != c.direct {
				t.Errorf("%s: the probe scan was handed %#v, want a direct table: %v", how, keys, c.direct)
			}
			for _, text := range []string{
				fmt.Sprintf("SELECT d.tag, count(*) AS n, sum(f.v) AS s, min(f.g) AS m FROM %s d JOIN fact f ON d.k = f.%s GROUP BY d.tag", c.dim, c.probe),
				fmt.Sprintf("SELECT f.g, count(*) AS n, sum(f.v) AS s, max(d.tag) AS m FROM %s d JOIN fact f ON d.k = f.%s GROUP BY f.g", c.dim, c.probe),
			} {
				check(how, text, par, c.dup, true, installed, late)
			}
		}
	}
	for _, par := range []int{1, 4} {
		for _, text := range []string{
			"SELECT g, count(*) AS n, sum(v) AS s FROM fact GROUP BY g",
			"SELECT kf, count(*) AS n, sum(v) AS s FROM fact GROUP BY kf",
			"SELECT bigf, count(*) AS n, min(big) AS m FROM fact GROUP BY bigf",
		} {
			check(fmt.Sprintf("P=%d", par), text, par, 1, true, installed)
		}
	}
}
