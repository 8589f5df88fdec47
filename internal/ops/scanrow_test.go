package ops

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// pageOf stores rows in a fresh slotted page and tombstones the slots in
// dead.
func pageOf(t *testing.T, rows []tuple.Tuple, dead ...int) []byte {
	t.Helper()
	pg := page.New(2048)
	for _, r := range rows {
		if _, err := pg.InsertTuple(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range dead {
		if err := pg.DeleteAt(s); err != nil {
			t.Fatal(err)
		}
	}
	return pg.Bytes()
}

// rawHeap puts each of blocks, as it is, on a device of its own as one page of
// a heap of width columns, and returns the source a table scan reads them
// through, over a cold pool of its own.
func rawHeap(t testing.TB, width int, blocks ...[]byte) heapSource {
	t.Helper()
	pool := buffer.NewPool(disk.New(disk.Config{BlockSize: len(blocks[0])}), 8, nil)
	pool.Disk().Create("raw")
	for _, b := range blocks {
		if _, err := pool.Disk().Append("raw", b); err != nil {
			t.Fatal(err)
		}
	}
	f, err := heap.Open(pool, "raw", tuple.NewSchema(make([]tuple.Column, width)...))
	if err != nil {
		t.Fatal(err)
	}
	return heapSource{f: f}
}

// runLocated is the kernel on one page's bytes, located here: what a scan's
// first visit of a cold page does, without a pool.
func runLocated(raw []byte, width int, tasks []pageTask) error {
	l, err := page.Locate(raw, width)
	if err != nil {
		return err
	}
	newPageKernel(width).run(raw, l, tasks, nil)
	return nil
}

// TestPageKernel holds the kernel to its specification: each consumer of a
// page gets, in stored order, exactly Filter.Test and Project of the rows the
// whole-page decoder (the iterator engine's, which shares no code with the
// kernel) reads from the same bytes — whatever the page holds and however
// the filter splits into in-place comparisons and a residual.
func TestPageKernel(t *testing.T) {
	I, F, S, D := tuple.I64, tuple.F64, tuple.Str, tuple.Date
	numbers := make([]tuple.Tuple, 40)
	for i := range numbers {
		numbers[i] = tuple.Tuple{I(int64(i - 5)), F(float64(i%7) / 2), D(int64(19000 + i%3)), I(int64(i % 4))}
	}
	numbers[7][1], numbers[8][1] = F(math.NaN()), F(math.Copysign(0, -1))
	text := make([]tuple.Tuple, 30)
	for i := range text {
		text[i] = tuple.Tuple{I(int64(i)), S(fmt.Sprint("name-", i%5)), F(float64(i)), S("")}
	}
	// Rows of one table column count and different widths; the second is as
	// long as two numbers (1+1+7 and 9 bytes) without being two numbers.
	mixed := []tuple.Tuple{
		{S("a"), I(1)}, {S("seven77"), I(2)}, {S("a much longer string than the others"), I(3)}, {S(""), I(4)},
	}

	cases := []struct {
		name     string
		width    int
		rows     []tuple.Tuple
		dead     []int
		filters  []expr.Pred
		projects [][]int
	}{
		{"numbers", 4, numbers, nil,
			[]expr.Pred{
				expr.AndOf(expr.GE(expr.Col(0), expr.CInt(3)), expr.LT(expr.Col(1), expr.CFloat(2.5))),
				expr.NE(expr.Col(3), expr.CInt(2)),
				expr.EQ(expr.Col(2), expr.CDate(19001)),
			},
			[][]int{nil, {1}, {3, 0}}},
		{"another numeric kind, and a string, as the literal", 4, numbers, nil,
			[]expr.Pred{
				expr.AndOf(expr.LE(expr.Col(0), expr.CFloat(9.5)), expr.GT(expr.Col(1), expr.CInt(1))),
				expr.AndOf(expr.EQ(expr.Col(2), expr.CInt(19002)), expr.GE(expr.Col(1), expr.CDate(0))),
				expr.LT(expr.Col(0), expr.CStr("5")),
			},
			[][]int{{0, 1}, {2}, {0}}},
		{"text", 4, text, nil,
			[]expr.Pred{
				expr.EQ(expr.Col(1), expr.CStr("name-3")),
				expr.AndOf(expr.GT(expr.Col(1), expr.CStr("name-1")), expr.LT(expr.Col(2), expr.CInt(20))),
				expr.GE(expr.Col(1), expr.CInt(7)),
			},
			[][]int{nil, {1, 3}, {0}}},
		{"mixed widths", 2, mixed, nil,
			[]expr.Pred{nil, expr.GT(expr.Col(1), expr.CInt(1)), expr.LE(expr.Col(0), expr.CStr("b"))},
			[][]int{nil, {0}, {1}}},
		{"tombstones", 4, numbers, []int{0, 3, 4, 39},
			[]expr.Pred{nil, expr.LT(expr.Col(0), expr.CInt(0)), expr.GE(expr.Col(0), expr.CInt(30))},
			[][]int{{0}, nil, {0, 2}}},
		{"every row dead", 4, numbers[:3], []int{0, 1, 2},
			[]expr.Pred{nil, nil, nil}, [][]int{nil, {}, {1}}},
		{"zero-column projection", 4, text, []int{2},
			[]expr.Pred{nil, expr.LT(expr.Col(0), expr.CInt(10)), expr.EQ(expr.Col(0), expr.CInt(-1))},
			[][]int{{}, {}, {}}},
		{"residual OR, IN, BETWEEN", 4, numbers, []int{9},
			[]expr.Pred{
				expr.OrOf(expr.LT(expr.Col(0), expr.CInt(0)), expr.EQ(expr.Col(3), expr.CInt(1))),
				expr.AndOf(expr.GE(expr.Col(0), expr.CInt(2)), expr.InOf(expr.Col(3), I(0), F(3))),
				expr.AndOf(expr.BetweenOf(expr.Col(0), I(4), F(20.5)), expr.NotOf(expr.EQ(expr.Col(2), expr.Col(2))), expr.NE(expr.Col(3), expr.CInt(9))),
			},
			[][]int{{3}, nil, {0, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := pageOf(t, c.rows, c.dead...)
			decoded, err := page.FromBytes(raw).Tuples(c.width)
			if err != nil {
				t.Fatal(err)
			}
			tasks := programs(c.width, c.filters, c.projects)
			if err := runLocated(raw, c.width, tasks); err != nil {
				t.Fatal(err)
			}
			for i := range tasks {
				var want []tuple.Tuple
				for _, r := range decoded {
					if c.filters[i] != nil && !c.filters[i].Test(r) {
						continue
					}
					if c.projects[i] != nil {
						r = r.Project(c.projects[i])
					}
					want = append(want, r)
				}
				got := tasks[i].out
				if len(got) != len(want) {
					t.Fatalf("consumer %d: %d rows, decode-then-filter gives %d", i, len(got), len(want))
				}
				for j := range got {
					if fmt.Sprintf("%#v", got[j]) != fmt.Sprintf("%#v", want[j]) {
						t.Fatalf("consumer %d row %d: %#v, decode-then-filter gives %#v", i, j, got[j], want[j])
					}
				}
				if len(want) == 0 && got != nil {
					t.Fatalf("consumer %d leased an array for no row", i)
				}
			}
		})
	}
}

// TestPageKernelKeyFilter: a join's build keys are one more selection loop.
// A row whose key's bit is clear is not built and is counted, whatever the
// key's kind — a TEXT key is hashed on its bytes where it lies; a false
// positive is left to the join; the consumer beside it on the same page is not
// affected.
func TestPageKernelKeyFilter(t *testing.T) {
	rows := make([]tuple.Tuple, 60)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.F64(float64(i % 10)), tuple.Str("x")}
	}
	rows[58][1], rows[59][1] = tuple.Str("a text key, longer than a word"), tuple.Str("not a key")
	raw := pageOf(t, rows)
	keys := &core.KeyFilter{Col: 1, Shift: 64 - 10, Bits: make([]uint64, 1<<10/64)}
	for _, k := range []tuple.Value{tuple.I64(3), tuple.F64(7), tuple.Date(8), rows[58][1]} { // any kind
		bit := tuple.Hash1(tuple.Tuple{k}, 0) >> keys.Shift
		keys.Bits[bit>>6] |= 1 << (bit & 63)
	}
	tasks := programs(3, []expr.Pred{expr.LT(expr.Col(0), expr.CInt(50)), nil}, [][]int{{1, 0}, {0}})
	tasks[0].keys = keys
	if err := runLocated(raw, 3, tasks); err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, r := range tasks[0].out {
		if k := r[0].F; k == 3 || k == 7 || k == 8 {
			matches++
		}
	}
	// 15 of the 50 rows the filter keeps have a build key; at 4 keys in 1024
	// bits a false positive or two may ride along.
	if matches != 15 || len(tasks[0].out) > 20 || tasks[0].skipped != 50-len(tasks[0].out) {
		t.Fatalf("narrowed consumer: %d rows (%d with a build key), %d skipped", len(tasks[0].out), matches, tasks[0].skipped)
	}
	if len(tasks[1].out) != 60 || tasks[1].skipped != 0 {
		t.Fatalf("the consumer beside it: %d rows, %d skipped, want all 60", len(tasks[1].out), tasks[1].skipped)
	}
	tasks[1].keys, tasks[1].out = keys, nil
	if err := runLocated(raw, 3, tasks[1:]); err != nil {
		t.Fatal(err)
	}
	text := 0
	for _, r := range tasks[1].out {
		if r[0].I == 58 {
			text++
		}
	}
	if n := len(tasks[1].out); text != 1 || n < 18 || n > 22 || tasks[1].skipped != 60-n {
		t.Fatalf("TEXT keys: the row with the build key was kept %d times among %d rows (want 18 and a false positive or two), %d skipped", text, n, tasks[1].skipped)
	}
}

// groupRows renders a group table: one line a group, in order of first sight,
// the key then every aggregate's result, NaNs and the sign of a zero included.
func groupRows(gt *groupTable) []string {
	var out []string
	for _, row := range groupTuples(gt) {
		out = append(out, fmt.Sprintf("%#v", []tuple.Value(row)))
	}
	return out
}

// groupTuples is the rows a group table would emit.
func groupTuples(gt *groupTable) []tuple.Tuple {
	var out []tuple.Tuple
	for g, key := range gt.groups.rows {
		row := append(tuple.Tuple{}, key...)
		for _, st := range gt.states[g] {
			row = append(row, st.Result())
		}
		out = append(out, row)
	}
	return out
}

// joinedFold completes fold as a hash join does that took it (handDown): with
// a build side of rows of width columns, keyed by their column lkey, probed by
// the scan's output column rkey.
func joinedFold(fold *scanFold, rows []tuple.Tuple, width, lkey, rkey int, project []int) {
	build := &hashTable{}
	for _, b := range rows {
		build.add(tuple.Hash1(b, lkey), b)
	}
	col := rkey
	if project != nil {
		col = project[rkey]
	}
	fold.build, fold.lkey, fold.width, fold.probe = build, lkey, width, buildKeys(build, col)
}

// probed is what the hash join makes of probe rows ts that reach it as rows:
// probeTable's output, through an emitter of its own.
func probed(t testing.TB, build *hashTable, lkey, rkey int, ts []tuple.Tuple) []tuple.Tuple {
	t.Helper()
	buf := tbuf.New(1)
	buf.SetUnbounded()
	em := &emitter{out: tbuf.NewSharedOut(buf, 0), size: 64}
	var arena tuple.RowArena
	for _, r := range ts {
		if err := probeTable(build, &plan.HashJoin{LKey: lkey, RKey: rkey}, em, &arena, r, tuple.Hash1(r, rkey)); err != nil {
			t.Fatal(err)
		}
	}
	if err := em.flush(); err != nil {
		t.Fatal(err)
	}
	buf.Close(nil)
	var out []tuple.Tuple
	for b, err := buf.Get(); err != io.EOF; b, err = buf.Get() {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestPageKernelFold holds the fold branch to the build branch: the partial
// table a folding consumer's page leaves is the table groupTable.add makes of
// the rows the same page gives a consumer that builds them — same groups in
// the same order, every result bit for bit — and the folding consumer is
// handed no row. Through a join, the rows are what probeTable makes of those
// the same page gives a consumer that builds them: build columns first, the
// keys and arguments in those terms, a row once for every build row of its key
// and never for a key the bitmap or the hash alone let through.
func TestPageKernelFold(t *testing.T) {
	I, F, S, D := tuple.I64, tuple.F64, tuple.Str, tuple.Date
	count := expr.AggSpec{Kind: expr.AggCount}
	agg := func(kind expr.AggKind, arg expr.Expr) expr.AggSpec { return expr.AggSpec{Kind: kind, Arg: arg} }
	everyKind := func(col int) []expr.AggSpec {
		return []expr.AggSpec{count, agg(expr.AggCount, expr.Col(col)), agg(expr.AggSum, expr.Col(col)),
			agg(expr.AggMin, expr.Col(col)), agg(expr.AggMax, expr.Col(col)), agg(expr.AggAvg, expr.Col(col))}
	}
	// id, an INT/FLOAT/DATE mix of equal numbers, a fractional FLOAT, a DATE, TEXT.
	rows := make([]tuple.Tuple, 36)
	for i := range rows {
		same := []tuple.Value{I(int64(i % 3)), F(float64(i % 3)), D(int64(i % 3))}[i/3%3]
		rows[i] = tuple.Tuple{I(int64(i)), same, F(float64(i*i%23) / 7), D(int64(19000 + i%4)), S(fmt.Sprint("name-", i%5))}
	}
	special := make([]tuple.Tuple, 12)
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e308, 1e308, -1e308, 0.1, 0.2, -0.3, 1e-300} {
		special[i] = tuple.Tuple{I(int64(i % 4)), F(f), S("")}
	}

	type foldCase struct {
		name    string
		width   int
		rows    []tuple.Tuple
		dead    []int
		filter  expr.Pred
		project []int
		keys    []int // in the scan's output columns, as the specs' arguments are
		specs   []expr.AggSpec
	}
	// Through a join: build rows of bw columns, their key column and the scan's
	// output column it equals; keys and arguments count the build row's columns
	// first.
	type joinCase struct {
		foldCase
		build          []tuple.Tuple
		bw, lkey, rkey int
	}
	plain := []foldCase{
		{"scalar, every kind over a fractional float", 5, rows, nil, nil, nil, nil, everyKind(2)},
		{"count(*) of a zero-column projection", 5, rows, []int{3}, expr.GE(expr.Col(0), expr.CInt(10)), []int{}, nil, []expr.AggSpec{count}},
		{"INT key", 5, rows, nil, nil, []int{0, 2}, []int{0}, everyKind(1)},
		{"INT, FLOAT and DATE of one value are one group", 5, rows, nil, nil, []int{2, 1}, []int{1}, everyKind(0)},
		{"DATE key through a projection, TEXT argument", 5, rows, []int{0, 7}, expr.NE(expr.Col(0), expr.CInt(5)), []int{4, 3, 3}, []int{2}, everyKind(0)},
		{"TEXT key, DATE argument", 5, rows, nil, expr.OrOf(expr.LT(expr.Col(0), expr.CInt(9)), expr.GT(expr.Col(2), expr.CFloat(1.5))), []int{3, 4}, []int{1}, everyKind(0)},
		{"two keys, one of them TEXT", 5, rows, nil, nil, nil, []int{4, 3}, everyKind(2)},
		{"expression arguments", 5, rows, nil, expr.LT(expr.Col(0), expr.CInt(30)), []int{0, 2, 3}, []int{2},
			[]expr.AggSpec{agg(expr.AggSum, expr.Mul(expr.Col(1), expr.Sub(expr.CInt(1), expr.Col(0)))), agg(expr.AggMax, expr.Add(expr.Col(0), expr.Col(2))),
				agg(expr.AggCount, expr.Div(expr.Col(0), expr.CInt(0))), agg(expr.AggAvg, expr.CFloat(0.1))}},
		{"NaN, infinities, -0 and sums that overflow", 3, special, nil, nil, nil, nil, everyKind(1)},
		{"the same, grouped", 3, special, nil, nil, []int{1, 0}, []int{1}, everyKind(0)},
		{"a NaN and a -0 as group keys", 3, special, nil, nil, nil, []int{1}, []expr.AggSpec{count, agg(expr.AggMin, expr.Col(0))}},
		{"a TEXT argument summed", 3, special, nil, nil, nil, []int{0}, []expr.AggSpec{agg(expr.AggSum, expr.Col(2)), agg(expr.AggAvg, expr.Col(2))}},
		{"no survivor", 5, rows, nil, expr.LT(expr.Col(0), expr.CInt(-1)), nil, []int{4}, everyKind(2)},
		{"no survivor, scalar", 5, rows, nil, expr.LT(expr.Col(0), expr.CInt(-1)), nil, nil, everyKind(2)},
		{"one group per row", 5, rows, []int{35}, nil, nil, []int{0}, everyKind(4)},
	}
	// (key, label, w): the keys 0 as an INT and 1 as a FLOAT meet the scan's
	// INT/FLOAT/DATE mix; its 2 has no build row, 5 no scanned one.
	dims := []tuple.Tuple{{I(0), S("zero"), F(0.5)}, {F(1), S("one"), F(1.25)}, {I(5), S("five"), F(5)}}
	cases := []joinCase{
		{foldCase{"join on INT = FLOAT = DATE, group by a build column", 5, rows, nil, nil, nil, []int{1}, everyKind(3 + 2)}, dims, 3, 0, 1},
		{foldCase{"group by a scanned column, arguments of the build side", 5, rows, []int{4}, expr.GT(expr.Col(0), expr.CInt(2)), []int{4, 1, 0}, []int{3 + 0},
			append(everyKind(2), everyKind(1)...)}, dims, 3, 0, 1},
		{foldCase{"keys of both sides, the scanned one first", 5, rows, nil, nil, []int{0, 1, 4}, []int{3 + 2, 1}, everyKind(3 + 0)}, dims, 3, 0, 1},
		{foldCase{"keys of both sides, the build one first and again last", 5, rows, nil, nil, []int{0, 1, 4}, []int{1, 3 + 2, 1}, everyKind(2)}, dims, 3, 0, 1},
		{foldCase{"expressions over both sides", 5, rows, nil, expr.LT(expr.Col(0), expr.CInt(30)), []int{1, 2, 0}, []int{1},
			[]expr.AggSpec{agg(expr.AggSum, expr.Mul(expr.Col(2), expr.Col(3+1))), agg(expr.AggMax, expr.Add(expr.Col(0), expr.Col(3+2))),
				agg(expr.AggMin, expr.Sub(expr.Col(3+2), expr.CInt(1))), agg(expr.AggAvg, expr.Col(2)), count}}, dims, 3, 0, 0},
		{foldCase{"scalar over the join", 5, rows, nil, nil, []int{2, 1}, nil, append(everyKind(2), everyKind(3+0)...)}, dims, 3, 0, 1},
		{foldCase{"duplicate build keys: a row pairs with each", 5, rows, nil, nil, nil, []int{1, 3 + 0}, everyKind(2)},
			append([]tuple.Tuple{{F(1), S("again"), F(8)}, {D(1), S("x"), F(-8)}}, dims...), 3, 0, 1},
		{foldCase{"TEXT keys", 5, rows, nil, nil, []int{4, 2}, []int{1}, everyKind(2 + 1)},
			[]tuple.Tuple{{S("name-3"), I(30)}, {S("name-1"), I(10)}, {S("name-7"), I(70)}, {S("name-3"), I(31)}}, 2, 0, 0},
		// Ints beyond 2^53 that round to one float64 share a hash: the bitmap and
		// the chain's stored hash both let the row through, the key compare does not.
		{foldCase{"a false positive of the bitmap and of the hash", 2, []tuple.Tuple{{I(1<<60 + 1), I(1)}, {I(1 << 60), I(2)}, {I(1<<60 + 2), I(3)}, {I(7), I(4)}},
			nil, nil, nil, []int{1 + 0}, everyKind(1 + 1)}, []tuple.Tuple{{I(1 << 60)}, {I(8)}}, 1, 0, 0},
		{foldCase{"no row has a build key", 5, rows, nil, nil, nil, []int{1}, everyKind(3)}, []tuple.Tuple{{I(77), S("x"), F(1)}}, 3, 0, 0},
		{foldCase{"empty build side", 5, rows, nil, nil, nil, []int{3 + 4}, everyKind(3 + 2)}, []tuple.Tuple{}, 3, 0, 1},
		{foldCase{"empty build side, scalar", 5, rows, nil, nil, nil, nil, everyKind(3 + 2)}, []tuple.Tuple{}, 3, 0, 1},
	}
	for _, c := range plain {
		cases = append(cases, joinCase{foldCase: c})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := pageOf(t, c.rows, c.dead...)
			tasks := programs(c.width, []expr.Pred{c.filter, c.filter, c.filter}, [][]int{c.project, c.project, c.project})
			fold := &scanFold{keys: c.keys, specs: c.specs}
			if c.build != nil {
				joinedFold(fold, c.build, c.bw, c.lkey, c.rkey, c.project)
			}
			tasks[1].fold, tasks[1].part, tasks[1].keys = fold, fold.partial(0), fold.probe
			if err := runLocated(raw, c.width, tasks); err != nil {
				t.Fatal(err)
			}
			// What the aggregate is fed when the page's rows are built: the
			// rows, or the join's output for them.
			fed, unmatched := tasks[0].out, 0
			if c.build != nil {
				fed = probed(t, fold.build, c.lkey, c.rkey, tasks[0].out)
				for _, r := range tasks[0].out {
					if !slices.ContainsFunc(c.build, func(b tuple.Tuple) bool { return tuple.Equal(b[c.lkey], r[c.rkey]) }) {
						unmatched++
					}
				}
			}
			t.Logf("%d rows kept, the aggregate is fed %d, %d have no build row", len(tasks[0].out), len(fed), unmatched)
			want := newGroupTable(c.keys, c.specs)
			for _, r := range fed {
				want.add(r)
			}
			got, added := groupRows(tasks[1].part), groupRows(want)
			for g := range max(len(got), len(added)) {
				if g >= len(got) || g >= len(added) || got[g] != added[g] {
					t.Fatalf("group %d of %d folded, %d added row by row:\nfolded %v\nadded  %v", g, len(got), len(added), got[g:min(g+1, len(got))], added[g:min(g+1, len(added))])
				}
			}
			// The partial merges with one filled from rows: a group's hash is
			// HashAt of the row the aggregate would have been fed, whichever
			// side its key columns come from.
			want.absorb(tasks[1].part)
			if len(want.states) != len(added) {
				t.Fatalf("absorbing the folded partial into the table of the rows added made %d groups of %d", len(want.states), len(added))
			}
			if tasks[1].out != nil || tasks[1].folded != len(fed) || tasks[1].skipped != unmatched {
				t.Fatalf("the folding consumer was handed %d rows, folded %d of %d and left out %d of %d", len(tasks[1].out), tasks[1].folded, len(fed), tasks[1].skipped, unmatched)
			}
			if len(tasks[2].out) != len(tasks[0].out) || tasks[0].folded+tasks[2].folded != 0 {
				t.Fatalf("the consumers beside it: %d and %d rows, %d folded", len(tasks[0].out), len(tasks[2].out), tasks[0].folded+tasks[2].folded)
			}
			if len(fold.partials) != 1 || fold.partials[0] != tasks[1].part {
				t.Fatalf("%d partials registered with the fold", len(fold.partials))
			}
		})
	}
}

// TestPageKernelDamagedPage: a slot, a tag or a length that is not what the
// layout says — on a page that is resident and already located, damaged
// through the write path (MarkDirty, then the bytes) or on the device (and the
// pool emptied) — gives the typed error at the next visit, no consumer a batch
// and the consumers that fold, one of them through a join, an untouched
// partial table; nothing is published, so the visit after that fails the same
// way.
func TestPageKernelDamagedPage(t *testing.T) {
	rows := []tuple.Tuple{
		{tuple.I64(1), tuple.Str("abc")}, {tuple.I64(2), tuple.Str("defgh")}, {tuple.I64(3), tuple.Str("")},
	}
	good := pageOf(t, rows)
	last := len(good) - len(rows[0].Encode(nil)) // the first row's payload ends the page
	damage := map[string]func(b []byte){
		"slot count":      func(b []byte) { b[0], b[1] = 0xff, 0xff },
		"slot offset":     func(b []byte) { b[4], b[5] = 0xf0, 0xff },
		"slot length":     func(b []byte) { b[6], b[7] = 0xff, 0x7f },
		"kind tag":        func(b []byte) { b[last] = 9 },
		"string length":   func(b []byte) { b[last+10] = 0x7f },
		"short row":       func(b []byte) { b[6] = 5 },
		"number as a tag": func(b []byte) { b[last+9] = byte(tuple.KindInt) },
	}
	for name, hurt := range damage {
		for _, through := range []string{"the write path", "the device"} {
			src := rawHeap(t, 2, good)
			pool, id := src.f.Pool(), buffer.PageID{File: src.f.Name}
			k := newPageKernel(2)
			visit := func() ([]pageTask, error) {
				tasks := programs(2, []expr.Pred{nil, expr.GT(expr.Col(0), expr.CInt(1)), nil, nil}, [][]int{nil, {1}, {}, nil})
				fold := &scanFold{keys: []int{1}, specs: []expr.AggSpec{{Kind: expr.AggCount}}}
				tasks[0].fold, tasks[0].part = fold, fold.partial(0) // the first served folds
				joined := &scanFold{keys: []int{1, 2 + 1}, specs: []expr.AggSpec{{Kind: expr.AggMax, Arg: expr.Col(2 + 0)}}}
				joinedFold(joined, []tuple.Tuple{{tuple.I64(2), tuple.Str("two")}, {tuple.F64(3), tuple.Str("three")}}, 2, 0, 0, nil)
				tasks[3].fold, tasks[3].part, tasks[3].keys = joined, joined.partial(0), joined.probe // and the last, through a join
				_, err := buildPage(src, 0, k, tasks, nil)
				return tasks, err
			}
			if tasks, err := visit(); err != nil || len(tasks[1].out) != 2 || tasks[3].folded != 2 || pool.Stats().Layouts != 1 {
				t.Fatalf("%s: the undamaged page: %v, %d rows, %d pairs folded, %d layouts", name, err, len(tasks[1].out), tasks[3].folded, pool.Stats().Layouts)
			}
			if through == "the device" {
				raw := append([]byte(nil), good...)
				hurt(raw)
				if err := pool.Disk().Write(id.File, 0, raw); err != nil {
					t.Fatal(err)
				}
				if err := pool.Invalidate(); err != nil {
					t.Fatal(err)
				}
			} else {
				fr, err := pool.PinFrame(id)
				if err != nil {
					t.Fatal(err)
				}
				pool.MarkDirty(id)
				hurt(fr.Data())
				fr.Unpin()
			}
			for _, nth := range []string{"next", "one after"} {
				tasks, err := visit()
				var ee *tuple.EncodingError
				var ce *page.CorruptError
				if !errors.As(err, &ee) && !errors.As(err, &ce) {
					t.Errorf("%s through %s, the %s visit: got %v, want a *tuple.EncodingError or a *page.CorruptError", name, through, nth, err)
				}
				for i := range tasks {
					if tasks[i].out != nil {
						t.Errorf("%s through %s: consumer %d was handed %d rows of a damaged page", name, through, i, len(tasks[i].out))
					}
				}
				for _, i := range []int{0, 3} {
					if n := len(tasks[i].part.states); n != 0 || tasks[i].folded != 0 || tasks[i].skipped != 0 {
						t.Errorf("%s through %s: consumer %d folded %d groups from a damaged page", name, through, i, n)
					}
				}
				if n := pool.Stats().Layouts; n != 0 {
					t.Errorf("%s through %s: %d layouts are published of a damaged page", name, through, n)
				}
			}
		}
	}
}
