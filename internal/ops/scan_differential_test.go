package ops

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
)

// The access to a page does not change the answer: the scan µEngine filters
// and projects on the encoded rows, the iterator engine decodes whole pages
// and evaluates the same predicate on the decoded row, and the two must
// return the same rows as multisets for any filter and any projection.
//
// Two tables share one shape (INT, FLOAT, DATE, TEXT, INT): h is a heap with
// tombstoned and rewritten rows (a rewrite with a longer string repacks its
// page), c has a clustered index on its first column and grew by single
// inserts after the load, so leaves have split.

func sdSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("id", tuple.KindInt),
		tuple.Col("f", tuple.KindFloat),
		tuple.Col("d", tuple.KindDate),
		tuple.Col("s", tuple.KindString),
		tuple.Col("g", tuple.KindInt),
	)
}

func sdRow(rng *rand.Rand, id int) tuple.Tuple {
	return tuple.Tuple{
		tuple.I64(int64(id)),
		tuple.F64(float64(rng.Intn(4000)-2000) / 8), // fractional, both signs
		tuple.Date(int64(19000 + rng.Intn(200))),
		tuple.Str(fmt.Sprintf("s%02d", rng.Intn(30))),
		tuple.I64(int64(rng.Intn(40) - 10)),
	}
}

func sdRuntime(t *testing.T, seed int64, cfg core.Config) *core.Runtime {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Both tables, the tree and what the writes add fit the pool: between
	// two writes a scan is served from the layouts an earlier one left.
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 1024})
	for _, name := range []string{"h", "c"} {
		if _, err := mgr.CreateTable(name, sdSchema()); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]tuple.Tuple, 1200)
	for i := range rows {
		rows[i] = sdRow(rng, i)
	}
	for _, name := range []string{"h", "c"} {
		if err := mgr.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.BuildClustered("c", "id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := mgr.Insert("c", sdRow(rng, rng.Intn(1200))); err != nil { // duplicate keys, splits
			t.Fatal(err)
		}
	}
	rt := core.NewRuntime(mgr, cfg, All())
	t.Cleanup(rt.Close)
	for _, mut := range []plan.Node{
		plan.NewDelete("h", expr.EQ(expr.Col(4), expr.CInt(3))),
		plan.NewDelete("h", expr.BetweenOf(expr.Col(0), tuple.I64(500), tuple.I64(530))),
		plan.NewUpdateWhere("h", expr.EQ(expr.Col(4), expr.CInt(7)), []plan.Assign{{Col: 3, E: expr.CStr("")}}),
		plan.NewUpdateWhere("h", expr.LT(expr.Col(0), expr.CInt(200)), []plan.Assign{
			{Col: 1, E: expr.Add(expr.Col(1), expr.CFloat(0.5))}}),
	} {
		runPlan(t, rt, mut)
	}
	// Growing rewrites, one row a statement: a commit whose page has no room
	// for the longer row is refused whole, and enough pages have room.
	grown := 0
	for id := int64(3); id < 1200; id += 29 {
		q, err := rt.Submit(context.Background(), plan.NewUpdateWhere("h", expr.EQ(expr.Col(0), expr.CInt(id)),
			[]plan.Assign{{Col: 3, E: expr.CStr("a-much-longer-string-than-it-had")}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sdDrain(q); err == nil {
			grown++
		}
	}
	if grown < 10 {
		t.Fatalf("only %d rows could be rewritten longer", grown)
	}
	return rt
}

// sdLiteral draws a literal to compare column col with: of the column's
// kind, of the other numeric kind (id < 10.5, f >= 3), or of the other group
// altogether (TEXT against a number, a number against a string).
func sdLiteral(rng *rand.Rand, col int) tuple.Value {
	numbers := []tuple.Value{
		tuple.I64(int64(rng.Intn(1400) - 100)),
		tuple.F64(float64(rng.Intn(2800)-200)/2 + 0.5),
		tuple.F64(float64(rng.Intn(600) - 300)),
		tuple.Date(int64(18990 + rng.Intn(220))),
		tuple.I64(int64(rng.Intn(60) - 20)),
	}
	text := tuple.Str(fmt.Sprintf("s%02d", rng.Intn(34)-2))
	if rng.Intn(5) == 0 { // the other group
		if col == 3 {
			return numbers[rng.Intn(len(numbers))]
		}
		return text
	}
	if col == 3 {
		return text
	}
	if rng.Intn(3) == 0 {
		return numbers[rng.Intn(len(numbers))]
	}
	return []tuple.Value{numbers[0], numbers[2], numbers[3], text, numbers[4]}[col]
}

func sdCmp(rng *rand.Rand, l, r expr.Expr) expr.Pred {
	return &expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: l, R: r}
}

func sdNumExpr(rng *rand.Rand) expr.Expr {
	cols := []int{0, 1, 2, 4}
	c := expr.Expr(expr.Col(cols[rng.Intn(len(cols))]))
	switch rng.Intn(4) {
	case 0:
		return c
	case 1:
		return expr.Add(c, expr.CInt(int64(rng.Intn(50))))
	case 2:
		return expr.Mul(c, expr.CFloat(1.5))
	default:
		return expr.Sub(c, expr.Col(cols[rng.Intn(len(cols))]))
	}
}

// sdFilter draws a scan filter. Half of them are conjunctions whose
// operands are mostly `col op literal`: the conjuncts the scanner compares
// in place, beside a residual it evaluates on decoded columns.
func sdFilter(rng *rand.Rand) expr.Pred {
	if rng.Intn(2) == 0 {
		return sdPred(rng, 3)
	}
	ps := make([]expr.Pred, 1+rng.Intn(3))
	for i := range ps {
		col := rng.Intn(5)
		ps[i] = sdCmp(rng, expr.Col(col), &expr.Const{V: sdLiteral(rng, col)})
		if rng.Intn(4) == 0 {
			ps[i] = sdPred(rng, 2)
		}
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return expr.AndOf(ps...)
}

func sdPred(rng *rand.Rand, depth int) expr.Pred {
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.AndOf(sdPred(rng, depth-1), sdPred(rng, depth-1))
		case 1:
			return expr.OrOf(sdPred(rng, depth-1), sdPred(rng, depth-1))
		default:
			return expr.NotOf(sdPred(rng, depth-1))
		}
	}
	col := rng.Intn(5)
	switch rng.Intn(7) {
	case 0, 1:
		return sdCmp(rng, expr.Col(col), &expr.Const{V: sdLiteral(rng, col)})
	case 2:
		return sdCmp(rng, &expr.Const{V: sdLiteral(rng, col)}, expr.Col(col)) // literal on the left
	case 3:
		return expr.InOf(expr.Col(col), sdLiteral(rng, col), sdLiteral(rng, col), sdLiteral(rng, col))
	case 4:
		b := expr.BetweenOf(expr.Col(col), sdLiteral(rng, col), sdLiteral(rng, col))
		b.LoX, b.HiX = rng.Intn(2) == 0, rng.Intn(2) == 0
		return b
	case 5:
		return sdCmp(rng, sdNumExpr(rng), sdNumExpr(rng)) // arithmetic on both sides
	default:
		return sdCmp(rng, expr.Col(col), expr.Col(rng.Intn(5))) // column against column, any kinds
	}
}

// sdProject draws a projection: none, or columns dropped, reordered and
// repeated.
func sdProject(rng *rand.Rand) []int {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := make([]int, 1+rng.Intn(6))
	for i := range out {
		out[i] = rng.Intn(5)
	}
	return out
}

// sdScan draws the access: it returns the plans to run on the scan µEngine
// and the plan whose answer, on the iterator engine, their rows together
// must equal.
func sdScan(rng *rand.Rand, filter expr.Pred, project []int) (run []plan.Node, ref plan.Node) {
	full := func(ordered bool) *plan.IndexScan {
		return plan.NewIndexScan("c", sdSchema(), "id", tuple.Value{}, tuple.Value{}, true, ordered, filter, project)
	}
	switch rng.Intn(6) {
	case 0, 1, 2:
		ref = plan.NewTableScan("h", sdSchema(), filter, project, rng.Intn(4) == 0)
	case 3:
		ref = full(rng.Intn(2) == 0)
	case 4: // bounded: the B+tree range path
		lo := int64(rng.Intn(1200))
		ref = plan.NewIndexScan("c", sdSchema(), "id", tuple.I64(lo), tuple.I64(lo+int64(rng.Intn(400))), true, true, filter, project)
	default:
		// Two leaf ranges that tile the chain: the partial-scan path (the
		// iterator engine knows no leaf ordinals, so it answers for both).
		head, tail := full(true), full(true)
		head.LeafTo = 1 + rng.Intn(40)
		tail.LeafFrom = head.LeafTo
		return []plan.Node{head, tail}, full(true)
	}
	return []plan.Node{ref}, ref
}

// sdAggregate draws an aggregation over input, whose output has width
// columns: scalar or grouped by one or two of them, every kind of aggregate,
// over a column, an expression or nothing.
func sdAggregate(rng *rand.Rand, input plan.Node, width int) plan.Node {
	var specs []expr.AggSpec
	for kind := expr.AggCount; kind <= expr.AggAvg; kind++ {
		if width == 0 || rng.Intn(6) == 0 {
			specs = append(specs, expr.AggSpec{Kind: expr.AggCount}) // count(*)
			continue
		}
		arg, other := expr.Col(rng.Intn(width)), expr.Col(rng.Intn(width))
		switch rng.Intn(5) {
		case 0:
			specs = append(specs, expr.AggSpec{Kind: kind, Arg: expr.Mul(arg, expr.CFloat(1.5))})
		case 1:
			specs = append(specs, expr.AggSpec{Kind: kind, Arg: expr.Sub(expr.Add(arg, expr.CInt(int64(rng.Intn(50)))), other)})
		default:
			specs = append(specs, expr.AggSpec{Kind: kind, Arg: arg})
		}
	}
	if width == 0 || rng.Intn(3) == 0 {
		return plan.NewAggregate(input, specs)
	}
	keys := []int{rng.Intn(width)}
	if rng.Intn(2) == 0 {
		keys = append(keys, rng.Intn(width))
	}
	return plan.NewGroupBy(input, keys, specs)
}

// sdJoin draws a hash join with probe, whose output has width columns, as its
// probe side: the build side a few rows of h — now and then none — or of c,
// with or without a projection, the keys mostly one column on both sides and
// otherwise any two (INT = FLOAT = DATE, or no match at all). It returns the
// join, the same join spelled as a nested loop — which compares and never
// hashes — and the build side's width.
func sdJoin(rng *rand.Rand, probe plan.Node, project []int, width int) (join, loop plan.Node, wl int) {
	rkey := rng.Intn(width)
	lkey := rkey
	if project != nil {
		lkey = project[rkey]
	}
	if rng.Intn(3) == 0 {
		lkey = rng.Intn(5)
	}
	few := expr.LT(expr.Col(0), expr.CInt(int64(rng.Intn(90)-10)))
	var cols []int
	if wl = 5; rng.Intn(2) == 0 {
		cols, lkey, wl = []int{lkey, 3, 1}, 0, 3
	}
	var build plan.Node = plan.NewTableScan("h", sdSchema(), few, cols, false)
	if rng.Intn(3) == 0 {
		build = plan.NewIndexScan("c", sdSchema(), "id", tuple.Value{}, tuple.Value{}, true, false, few, cols)
	}
	return plan.NewHashJoin(build, probe, lkey, rkey), plan.NewNLJoin(build, probe, expr.EQ(expr.Col(lkey), expr.Col(wl+rkey))), wl
}

// sdReaggregate is the aggregation agg over another input.
func sdReaggregate(agg, input plan.Node) plan.Node {
	if g, grouped := agg.(*plan.GroupBy); grouped {
		return plan.NewGroupBy(input, g.Keys, g.Specs)
	}
	return plan.NewAggregate(input, agg.(*plan.Aggregate).Specs)
}

func sdSorted(rows []tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", []tuple.Value(r))
	}
	sort.Strings(out)
	return out
}

func sdDrain(q *core.Query) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	for {
		b, err := q.Result.Get()
		if err == io.EOF {
			return out, q.Wait()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
}

func sdCompare(t *testing.T, how string, p plan.Node, got []tuple.Tuple, want []string) {
	t.Helper()
	g := sdSorted(got)
	if len(g) != len(want) {
		t.Fatalf("%s: %d rows, the iterator engine has %d\n%s", how, len(g), len(want), plan.Explain(p))
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("%s: row %d is %s, the iterator engine has %s\n%s", how, i, g[i], want[i], plan.Explain(p))
		}
	}
}

// sdWrite commits one drawn write to each table: h takes an UPDATE of the
// same width, one that grows a TEXT (refused whole when its page has no room),
// a DELETE or an INSERT into the open tail; c, which is clustered, an INSERT,
// whose leaf now and then splits.
func sdWrite(t *testing.T, rt *core.Runtime, rng *rand.Rand) {
	t.Helper()
	one := expr.EQ(expr.Col(0), expr.CInt(int64(rng.Intn(1200))))
	kind := rng.Intn(4)
	mut := []plan.Node{
		plan.NewUpdateWhere("h", one, []plan.Assign{{Col: 1, E: expr.Add(expr.Col(1), expr.CFloat(0.25))}}),
		plan.NewUpdateWhere("h", one, []plan.Assign{{Col: 3, E: expr.CStr("grown-while-the-pool-was-warm")}}),
		plan.NewDelete("h", one),
		nil,
	}[kind]
	if mut == nil {
		if err := rt.SM.Insert("h", sdRow(rng, 1200+rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
	} else if q, err := rt.Submit(context.Background(), mut); err != nil {
		t.Fatal(err)
	} else if _, err := sdDrain(q); err != nil && kind != 1 { // a grown row that does not fit is refused whole
		t.Fatal(err)
	}
	if err := rt.SM.Insert("c", sdRow(rng, rng.Intn(1200))); err != nil {
		t.Fatal(err)
	}
}

func TestScanOnEncodedRowsMatchesIteratorEngine(t *testing.T) {
	const seed = 20260930
	rt := sdRuntime(t, seed, core.DefaultConfig())
	oracle := volcano.New(rt.SM)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	kept := 0
	// Scans of pages served after a write to their table: from layouts that
	// outlived it, all of them, and with some derived afresh.
	servedWarm, servedAfresh := 0, 0
	// What became of the hand-overs of the aggregates over a join, by reason,
	// and how many of them had pairs added up by the scan.
	var throughJoin [core.NumHandOvers]int64
	foldedThroughJoin := 0
	for i := 0; i < 400; i++ {
		// The writer arm: every other statement follows a commit to both
		// tables, and is answered as of it.
		wrote := i%2 == 1
		if wrote {
			sdWrite(t, rt, rng)
		}
		var filter expr.Pred
		if rng.Intn(10) > 0 {
			filter = sdFilter(rng)
		}
		project := sdProject(rng)
		run, p := sdScan(rng, filter, project)
		// One statement in three aggregates what the scan keeps — an empty
		// result included — mostly straight over the scan: the scan µEngine
		// then folds the rows where they lie (core.Packet.SetFold) unless the
		// scan is not served page by page, or something stands in between. In a
		// third of those a hash join stands in between, with the scan as its
		// probe side: the fold goes through it.
		var loop plan.Node // the statement with its join spelled as a nested loop
		if len(run) == 1 && i%3 == 0 {
			width := len(project)
			if project == nil {
				width = sdSchema().Len()
			}
			if rng.Intn(8) == 0 {
				p = plan.NewFilter(p, expr.True{})
			}
			var nested plan.Node
			if width > 0 && rng.Intn(3) == 0 {
				var wl int
				p, nested, wl = sdJoin(rng, p, project, width)
				width += wl
			}
			p = sdAggregate(rng, p, width)
			if nested != nil {
				loop = sdReaggregate(p, nested)
			}
			run = []plan.Node{p}
		}
		ref, err := oracle.Run(ctx, p)
		if err != nil {
			t.Fatalf("iterator engine: %v\n%s", err, plan.Explain(p))
		}
		want := sdSorted(ref)
		if loop != nil {
			nested, err := oracle.Run(ctx, loop)
			if err != nil {
				t.Fatalf("iterator engine: %v\n%s", err, plan.Explain(loop))
			}
			sdCompare(t, fmt.Sprintf("statement %d, its join as a nested loop", i), loop, nested, want)
		}
		kept += len(want)
		for _, par := range []int{1, 4} {
			for _, noOSP := range []bool{false, true} {
				var got []tuple.Tuple
				var visited, located int64
				for _, part := range run {
					q, err := rt.SubmitOpts(ctx, part, core.QueryOptions{Parallelism: par, DisableOSP: noOSP})
					if err != nil {
						t.Fatal(err)
					}
					rows, err := sdDrain(q)
					if err != nil {
						t.Fatalf("parallelism %d, osp off %v: %v\n%s", par, noOSP, err, plan.Explain(part))
					}
					got = append(got, rows...)
					visited, located = visited+q.Stats.PagesVisited.Load(), located+q.Stats.PagesLocated.Load()
					if loop != nil {
						for why := range throughJoin {
							throughJoin[why] += q.Stats.HandOvers[why].Load()
						}
						if q.Stats.FoldedRows.Load() > 0 {
							foldedThroughJoin++
						}
					}
				}
				sdCompare(t, fmt.Sprintf("statement %d, parallelism %d, osp off %v", i, par, noOSP), p, got, want)
				switch {
				case !wrote || visited == 0: // (a bounded range is served entry by entry)
				case located == 0:
					servedWarm++
				default:
					servedAfresh++
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("no drawn scan kept a row")
	}
	t.Logf("after a write to its table: %d scans located no page, %d located some", servedWarm, servedAfresh)
	if servedWarm < 50 || servedAfresh < 50 {
		t.Fatalf("after a write to its table %d scans located no page and %d some: want at least 50 of each", servedWarm, servedAfresh)
	}
	var st core.RuntimeStats
	eventually(t, "every query's hand-overs summed", func() bool {
		st = rt.Stats()
		return st.HandOvers[core.HandOverInstalled] == st.Folds+st.KeyFilters+st.Bounds
	})
	refused := -st.HandOvers[core.HandOverInstalled]
	for _, n := range st.HandOvers {
		refused += n
	}
	t.Logf("hand-overs: %d folds and %d key filters installed, %d refused (%v)", st.Folds, st.KeyFilters, refused, st.HandOvers)
	if st.Folds < 20 || refused < 3 || st.HandOvers[core.HandOverNotAScan] == 0 || st.HandOvers[core.HandOverBoundedIndexRange] == 0 {
		t.Fatalf("the draws covered %d folds installed and %d refused %v: want at least 20 and 3, of both reasons", st.Folds, refused, st.HandOvers)
	}
	// Over a join every run hands over twice: the aggregate's fold and, when
	// that did not reach the join in time or at all, the join's key filter.
	// One statement at a time, no packet is shared: what can occur is installed,
	// the two reasons for which nobody asks, and late (which the scheduler
	// decides: printed, not required).
	t.Logf("aggregates over a join: %d had pairs folded; hand-overs %v", foldedThroughJoin, throughJoin)
	for _, why := range []core.HandOver{core.HandOverInstalled, core.HandOverNotAScan, core.HandOverBoundedIndexRange} {
		if throughJoin[why] < 3 || foldedThroughJoin < 3 {
			t.Fatalf("aggregates over a join: %d hand-overs ended %v and %d runs folded pairs, want at least 3 of each (%v)", throughJoin[why], why, foldedThroughJoin, throughJoin)
		}
	}
}

// Two and three consumers with different predicates and projections ride
// one scanner: the host is held mid-scan (its result is not read), the
// others attach to the scan group in flight, and every one of them gets its
// own answer.
func TestScanConsumersAttachedMidFlightMatchIteratorEngine(t *testing.T) {
	const seed = 20260931
	for _, par := range []int{1, 4} {
		cfg := core.DefaultConfig()
		cfg.ScanParallelism = par
		rt := sdRuntime(t, seed, cfg)
		oracle := volcano.New(rt.SM)
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed + int64(par)))
		for round := 0; round < 30; round++ {
			table := func(filter expr.Pred, project []int) plan.Node {
				if round%2 == 0 {
					return plan.NewTableScan("h", sdSchema(), filter, project, false)
				}
				return plan.NewIndexScan("c", sdSchema(), "id", tuple.Value{}, tuple.Value{}, true, false, filter, project)
			}
			plans := []plan.Node{table(nil, nil)} // the host keeps every row: it blocks on its buffer
			for n := 1 + rng.Intn(2); n > 0; n-- {
				project := sdProject(rng)
				p := table(sdFilter(rng), project)
				if project != nil && rng.Intn(2) == 0 {
					// The rider folds: what reached it as rows before its
					// aggregate handed its accumulators down, and what was
					// folded after, together are its answer.
					p = sdAggregate(rng, p, len(project))
				}
				plans = append(plans, p)
			}
			shares := rt.TotalShares()
			queries := make([]*core.Query, len(plans))
			var hostFirst []tuple.Tuple
			for i, p := range plans {
				q, err := rt.Submit(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
				if i == 0 {
					// One batch out: the scan group is registered and in flight.
					if hostFirst, err = q.Result.Get(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := rt.TotalShares() - shares; got != int64(len(plans)-1) {
				t.Fatalf("parallelism %d round %d: %d of %d consumers attached to the host's scan group", par, round, got, len(plans)-1)
			}
			results := make([][]tuple.Tuple, len(plans))
			errs := make([]error, len(plans))
			var wg sync.WaitGroup
			for i := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = sdDrain(queries[i])
				}()
			}
			wg.Wait()
			results[0] = append(hostFirst, results[0]...)
			for i, p := range plans {
				if errs[i] != nil {
					t.Fatalf("parallelism %d round %d consumer %d: %v", par, round, i, errs[i])
				}
				ref, err := oracle.Run(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				sdCompare(t, fmt.Sprintf("parallelism %d round %d consumer %d", par, round, i), p, results[i], sdSorted(ref))
			}
		}
	}
}
