package ops

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/page"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
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
// first visit of a cold page does, without a pool — on the layout as located,
// or with its number vectors stripped (every column read from its bytes).
func runLocated(raw []byte, width int, tasks []pageTask, vectors bool) error {
	l, err := page.Locate(raw, width)
	if err != nil {
		return err
	}
	if !vectors {
		l = stripped(l)
	}
	newPageKernel(width).run(raw, l, tasks)
	return nil
}

// stripped is l without its number vectors.
func stripped(l *buffer.Layout) *buffer.Layout { return &buffer.Layout{Rows: l.Rows, Offs: l.Offs} }

// encodedOnly is a page source whose layouts are stripped of their vectors.
type encodedOnly struct{ pageSource }

func (s encodedOnly) pinPage(ord int64) (*buffer.Frame, *buffer.Layout, bool, error) {
	fr, l, fresh, err := s.pageSource.pinPage(ord)
	if err == nil {
		l = stripped(l)
	}
	return fr, l, fresh, err
}

// vectorCols checks that Locate gave a column of the page a number vector
// exactly when its live values are numbers of one kind, and returns those
// columns.
func vectorCols(t *testing.T, raw []byte, width int) []int {
	t.Helper()
	l, err := page.Locate(raw, width)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := page.FromBytes(raw).Tuples(width)
	if err != nil {
		t.Fatal(err)
	}
	var cols []int
	for c := 0; c < width; c++ {
		uniform := len(rows) > 0 && rows[0][c].K != tuple.KindString
		for _, r := range rows {
			uniform = uniform && r[c].K == rows[0][c].K
		}
		if kind, vec := l.Vec(c); (vec != nil) != uniform || vec != nil && tuple.Kind(kind) != rows[0][c].K {
			t.Fatalf("column %d: a vector of kind %d (%d numbers); kind-uniform %v", c, kind, len(vec), uniform)
		}
		if uniform {
			cols = append(cols, c)
		}
	}
	return cols
}

// TestPageKernel holds the kernel to its specification: each consumer of a
// page gets, in stored order, exactly Filter.Test and Project of the rows the
// whole-page decoder (the iterator engine's, which shares no code with the
// kernel) reads from the same bytes — whatever the page holds and however
// the filter splits into in-place comparisons and a residual, and whether it
// reads a column from its number vector or from its bytes: every case runs on
// the layout as located and with the vectors stripped.
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
	// Columns that get no vector: INT and FLOAT in one, a DATE among INTs in
	// another; beside an INT column that does.
	intAndFloat := make([]tuple.Tuple, 24)
	for i := range intAndFloat {
		intAndFloat[i] = tuple.Tuple{I(int64(i)), F(float64(i) + 0.5), I(int64(i % 3))}
		if i%3 == 0 {
			intAndFloat[i][1], intAndFloat[i][2] = I(int64(i)), D(int64(i%3))
		}
	}
	// Ints either side of 2^53, where float64 stops telling them apart.
	var big []tuple.Tuple
	for _, v := range []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<60 + 1, -(1<<60 + 1), 7} {
		big = append(big, tuple.Tuple{I(v), D(v % 1000)})
	}
	var odd []tuple.Tuple // NaNs, zeros of both signs, infinities
	for _, f := range []float64{math.NaN(), 0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(), -2.5} {
		odd = append(odd, tuple.Tuple{F(f), I(int64(len(odd)))})
	}
	everyOp := func(col int, lit expr.Expr) []expr.Pred {
		return []expr.Pred{expr.EQ(expr.Col(col), lit), expr.NE(expr.Col(col), lit), expr.LT(expr.Col(col), lit),
			expr.LE(expr.Col(col), lit), expr.GT(expr.Col(col), lit), expr.GE(expr.Col(col), lit)}
	}
	six := [][]int{nil, {0}, {1}, nil, {1, 0}, {0}}

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
		{"INT and FLOAT in one column, a DATE among INTs: no vector", 3, intAndFloat, []int{4},
			[]expr.Pred{
				expr.AndOf(expr.LT(expr.Col(1), expr.CInt(12)), expr.GE(expr.Col(2), expr.CInt(1))),
				expr.EQ(expr.Col(1), expr.CFloat(9)),
				expr.OrOf(expr.GT(expr.Col(1), expr.CFloat(20.25)), expr.EQ(expr.Col(2), expr.CDate(0))),
			},
			[][]int{{1, 2}, nil, {2, 0}}},
		{"ints beyond 2^53 against a FLOAT literal", 2, big, nil,
			append(everyOp(0, expr.CFloat(1<<53)), expr.LT(expr.Col(0), expr.CFloat(1<<60)), expr.EQ(expr.Col(0), expr.CInt(1<<53+1))),
			append(six, []int{0}, nil)},
		{"NaN against every operator", 2, odd, []int{7}, everyOp(0, expr.CFloat(math.NaN())), six},
		{"NaN, -0 and the infinities against a number", 2, odd, nil,
			append(everyOp(0, expr.CInt(0)), expr.LT(expr.Col(0), expr.CFloat(math.Inf(1))), expr.GE(expr.Col(0), expr.CDate(-3))),
			append(six, nil, []int{1})},
		{"DATE against DATE, INT and FLOAT literals", 2, big, []int{0},
			append(everyOp(1, expr.CDate(993)), expr.LT(expr.Col(1), expr.CInt(500)), expr.GE(expr.Col(1), expr.CFloat(992.5))),
			append(six, []int{1}, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := pageOf(t, c.rows, c.dead...)
			decoded, err := page.FromBytes(raw).Tuples(c.width)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("columns with a vector: %v", vectorCols(t, raw, c.width))
			for _, vectors := range []bool{true, false} {
				pageKernelCase(t, raw, c.width, decoded, c.filters, c.projects, vectors)
			}
		})
	}
}

// pageKernelCase is one run of a TestPageKernel case: every consumer's rows
// are exactly decode-then-filter's.
func pageKernelCase(t *testing.T, raw []byte, width int, decoded []tuple.Tuple, filters []expr.Pred, projects [][]int, vectors bool) {
	tasks := programs(width, filters, projects)
	if err := runLocated(raw, width, tasks, vectors); err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		var want []tuple.Tuple
		for _, r := range decoded {
			if filters[i] != nil && !filters[i].Test(r) {
				continue
			}
			if projects[i] != nil {
				r = r.Project(projects[i])
			}
			want = append(want, r)
		}
		got := tasks[i].out
		if len(got) != len(want) {
			t.Fatalf("vectors %v, consumer %d: %d rows, decode-then-filter gives %d", vectors, i, len(got), len(want))
		}
		for j := range got {
			if fmt.Sprintf("%#v", got[j]) != fmt.Sprintf("%#v", want[j]) {
				t.Fatalf("vectors %v, consumer %d row %d: %#v, decode-then-filter gives %#v", vectors, i, j, got[j], want[j])
			}
		}
		if len(want) == 0 && got != nil {
			t.Fatalf("vectors %v, consumer %d made an array for no row", vectors, i)
		}
	}
}

// TestPageKernelKeyFilter: a join's build keys are one more selection loop.
// A row whose key's bit is clear is not built and is counted, whatever the
// key's kind — a TEXT key is hashed on its bytes where it lies, a number from
// its column's vector when it has one; a false positive is left to the join;
// the consumer beside it on the same page is not affected. Both kernels keep
// the same rows.
func TestPageKernelKeyFilter(t *testing.T) {
	rows := make([]tuple.Tuple, 60)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.I64(int64(i)), tuple.F64(float64(i % 10)), tuple.Str("x")}
	}
	// A FLOAT key column and an INT one (each a vector), and one with TEXT in
	// it (none).
	ints := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		ints[i] = tuple.Tuple{r[0], tuple.I64(int64(i % 10)), r[2]}
	}
	texts := append([]tuple.Tuple(nil), rows...)
	texts[58] = tuple.Tuple{texts[58][0], tuple.Str("a text key, longer than a word"), texts[58][2]}
	texts[59] = tuple.Tuple{texts[59][0], tuple.Str("not a key"), texts[59][2]}
	keys := &core.KeyFilter{Col: 1, Shift: 64 - 10, Bits: make([]uint64, 1<<10/64)}
	for _, k := range []tuple.Value{tuple.I64(3), tuple.F64(7), tuple.Date(8), texts[58][1]} { // any kind
		bit := tuple.Hash1(tuple.Tuple{k}, 0) >> keys.Shift
		keys.Bits[bit>>6] |= 1 << (bit & 63)
	}
	var kept [2][]string
	for v, vectors := range []bool{true, false} {
		for _, rows := range [][]tuple.Tuple{rows, ints, texts} {
			raw := pageOf(t, rows)
			tasks := programs(3, []expr.Pred{expr.LT(expr.Col(0), expr.CInt(50)), nil}, [][]int{{1, 0}, {0}})
			tasks[0].keys = keys
			if err := runLocated(raw, 3, tasks, vectors); err != nil {
				t.Fatal(err)
			}
			matches := 0
			for _, r := range tasks[0].out {
				if k := r[0].AsFloat(); k == 3 || k == 7 || k == 8 {
					matches++
				}
			}
			// 15 of the 50 rows the filter keeps have a build key; at 4 keys in 1024
			// bits a false positive or two may ride along.
			if matches != 15 || len(tasks[0].out) > 20 || tasks[0].skipped != 50-len(tasks[0].out) {
				t.Fatalf("vectors %v: narrowed consumer: %d rows (%d with a build key), %d skipped", vectors, len(tasks[0].out), matches, tasks[0].skipped)
			}
			if len(tasks[1].out) != 60 || tasks[1].skipped != 0 {
				t.Fatalf("vectors %v: the consumer beside it: %d rows, %d skipped, want all 60", vectors, len(tasks[1].out), tasks[1].skipped)
			}
			tasks[1].keys, tasks[1].out = keys, nil
			if err := runLocated(raw, 3, tasks[1:], vectors); err != nil {
				t.Fatal(err)
			}
			text := 0
			for _, r := range tasks[1].out {
				if r[0].I == 58 {
					text++
				}
			}
			if n := len(tasks[1].out); &rows[0] == &texts[0] && text != 1 || n < 18 || n > 22 || tasks[1].skipped != 60-n {
				t.Fatalf("vectors %v: the row with the TEXT build key was kept %d times among %d rows (want 18 and a false positive or two), %d skipped", vectors, text, n, tasks[1].skipped)
			}
			kept[v] = append(kept[v], fmt.Sprint(tasks[0].out, tasks[1].out))
		}
	}
	if !slices.Equal(kept[0], kept[1]) {
		t.Fatalf("the kernel on vectors kept\n%v\nand on the bytes\n%v", kept[0], kept[1])
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
	fold.build, fold.lkey, fold.width, fold.probe = build, lkey, width, buildKeys(build, lkey, col)
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
	// -0 and +0 as FLOAT keys, beside INT zeros: one group, one hash.
	zeros := []tuple.Tuple{{F(math.Copysign(0, -1)), I(1), I(0)}, {F(0), I(2), I(0)}, {F(math.Copysign(0, -1)), I(3), I(0)}}
	special := make([]tuple.Tuple, 12)
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e308, 1e308, -1e308, 0.1, 0.2, -0.3, 1e-300} {
		special[i] = tuple.Tuple{I(int64(i % 4)), F(f), S("")}
	}
	// Keys for a direct table: an INT with negatives, a DATE, a FLOAT of
	// integral and fractional values.
	ints := make([]tuple.Tuple, 30)
	for i := range ints {
		ints[i] = tuple.Tuple{I(int64(i - 10)), D(int64(i % 8)), F(float64(i) / 4)}
	}
	// Numbers at and around ±2^53, as INTs and as FLOATs.
	const p53 = 1 << 53
	edges := []tuple.Tuple{{I(p53 - 1), F(p53 - 2)}, {I(p53), F(p53)}, {I(p53 + 1), F(p53 + 2)}, {I(-p53), F(-p53)}, {I(-p53 - 1), F(p53 - 1)}, {I(0), F(0.5)}}
	// The span of two build rows of one column that a direct table may take,
	// and one step past it.
	span := int64(2*unsafe.Sizeof(tuple.Value{})/4 - 2)
	// Two keys that share a slot of the memo, the first's value twice as a
	// NaN (two payloads) and as -0 and +0.
	shared := uint64(1)
	for memoSlot(shared) != memoSlot(0) {
		shared++
	}
	slotMates := make([]tuple.Tuple, 24)
	for i := range slotMates {
		slotMates[i] = tuple.Tuple{I([]int64{0, int64(shared)}[i%2]), F([]float64{math.NaN(), 1, math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0, 1}[i%6]), I(int64(i))}
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
		{"-0 and +0 keys: one group", 3, zeros, nil, nil, nil, []int{0, 2}, append(everyKind(0), everyKind(1)...)},
		{"memo: two keys of one slot", 3, slotMates, nil, nil, nil, []int{0}, everyKind(2)},
		{"memo: NaNs of two payloads, -0 and +0", 3, slotMates, nil, nil, nil, []int{1}, everyKind(2)},
		{"memo: -0 and +0 alone", 3, zeros, nil, nil, nil, []int{0}, everyKind(1)},
		{"memo: numbers at and around 2^53", 2, edges, nil, nil, nil, []int{1}, everyKind(0)},
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
		{foldCase{"-0 and +0 probe keys against an INT 0 and a FLOAT -0", 3, zeros, nil, nil, []int{0, 1}, []int{1 + 0, 0}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(0)}, {F(math.Copysign(0, -1))}}, 1, 0, 0},
		{foldCase{"no row has a build key", 5, rows, nil, nil, nil, []int{1}, everyKind(3)}, []tuple.Tuple{{I(77), S("x"), F(1)}}, 3, 0, 0},
		{foldCase{"empty build side", 5, rows, nil, nil, nil, []int{3 + 4}, everyKind(3 + 2)}, []tuple.Tuple{}, 3, 0, 1},
		{foldCase{"empty build side, scalar", 5, rows, nil, nil, nil, nil, everyKind(3 + 2)}, []tuple.Tuple{}, 3, 0, 1},
		// Direct tables: their keys are INTs or DATEs within ±2^53 over a short span.
		{foldCase{"direct: INT keys with duplicates and negatives", 3, ints, nil, nil, nil, []int{1, 3 + 1}, everyKind(3 + 2)},
			[]tuple.Tuple{{I(-3), S("m3"), F(1)}, {I(0), S("zero"), F(2)}, {I(2), S("two"), F(3)}, {I(0), S("again"), F(4)}, {I(-1), S("m1"), F(5)}, {I(25), S("none"), F(6)}}, 3, 0, 0},
		{foldCase{"direct: DATE keys probed by an INT vector", 3, ints, []int{12}, expr.GT(expr.Col(2), expr.CFloat(1)), []int{0, 2}, []int{2 + 0}, everyKind(2 + 1)},
			[]tuple.Tuple{{D(3), S("d3")}, {D(7), S("d7")}, {D(3), S("again")}, {D(40), S("none")}}, 2, 0, 0},
		{foldCase{"direct: INT keys probed by a DATE vector, grouped by the probe key", 3, ints, nil, nil, []int{1, 2}, []int{2 + 0}, everyKind(2 + 1)},
			[]tuple.Tuple{{I(2), S("two")}, {I(5), S("five")}, {I(5), S("again")}}, 2, 0, 0},
		{foldCase{"direct: a FLOAT probe vector of integral and fractional values", 3, ints, nil, nil, []int{2, 0}, []int{1 + 1}, everyKind(0)},
			[]tuple.Tuple{{I(0)}, {I(1)}, {I(3)}, {I(7)}, {I(1)}}, 1, 0, 0},
		{foldCase{"direct: a FLOAT probe vector of NaN, infinities, -0 and huge values", 3, special, nil, nil, nil, []int{1 + 1}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(0)}, {I(1)}, {I(-1)}}, 1, 0, 1},
		{foldCase{"direct: the span at its bound", 3, ints, nil, nil, nil, []int{1 + 0}, everyKind(1 + 2)},
			[]tuple.Tuple{{I(0)}, {I(span - 1)}}, 1, 0, 0},
		{foldCase{"bitmap: the span one step past its bound", 3, ints, nil, nil, nil, []int{1 + 0}, everyKind(1 + 2)},
			[]tuple.Tuple{{I(0)}, {I(span)}}, 1, 0, 0},
		{foldCase{"direct: INT keys at 2^53 probed by INTs around it", 2, edges, nil, nil, nil, []int{1 + 1}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(p53 - 1)}, {I(p53)}}, 1, 0, 0},
		{foldCase{"direct: INT keys at 2^53 probed by FLOATs around it", 2, edges, nil, nil, nil, []int{1 + 0}, everyKind(1 + 1)},
			[]tuple.Tuple{{I(p53 - 1)}, {I(p53)}}, 1, 0, 1},
		{foldCase{"direct: INT keys at -2^53", 2, edges, nil, nil, nil, []int{1 + 1}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(-p53)}, {I(-p53 + 1)}}, 1, 0, 0},
		{foldCase{"bitmap: INT keys at -2^53 and 2^53", 2, edges, nil, nil, nil, []int{1 + 1}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(-p53)}, {I(p53)}}, 1, 0, 0},
		{foldCase{"bitmap: an INT key one past 2^53", 2, edges, nil, nil, nil, []int{1 + 1}, everyKind(1 + 0)},
			[]tuple.Tuple{{I(p53 + 1)}, {I(p53)}}, 1, 0, 0},
	}
	for _, c := range plain {
		cases = append(cases, joinCase{foldCase: c})
	}
	direct := func(c joinCase) bool {
		return strings.HasPrefix(c.name, "direct:") || c.name == "no row has a build key"
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := pageOf(t, c.rows, c.dead...)
			var runs []string
			for _, vectors := range []bool{true, false} {
				tasks := programs(c.width, []expr.Pred{c.filter, c.filter, c.filter}, [][]int{c.project, c.project, c.project})
				fold := &scanFold{keys: c.keys, specs: c.specs}
				if c.build != nil {
					joinedFold(fold, c.build, c.bw, c.lkey, c.rkey, c.project)
				}
				tasks[1].fold, tasks[1].part, tasks[1].keys = fold, fold.partial(0), fold.probe
				if c.build != nil && (fold.probe.Dense != nil) != direct(c) {
					t.Fatalf("the build side took a direct table: %v", fold.probe.Dense != nil)
				}
				// A direct table narrows the third consumer to exactly the rows
				// that join.
				exact := c.build != nil && direct(c)
				if exact {
					tasks[2].keys = fold.probe
				}
				if err := runLocated(raw, c.width, tasks, vectors); err != nil {
					t.Fatal(err)
				}
				// What the aggregate is fed when the page's rows are built: the
				// rows, or the join's output for them.
				fed, unmatched := tasks[0].out, 0
				if c.build != nil {
					fed = probed(t, fold.build, c.lkey, c.rkey, tasks[0].out)
					for _, r := range tasks[0].out { // (a NaN is Equal to every number, yet joins none)
						if len(probed(t, fold.build, c.lkey, c.rkey, []tuple.Tuple{r})) == 0 {
							unmatched++
						}
					}
				}
				t.Logf("vectors %v: %d rows kept, the aggregate is fed %d, %d have no build row", vectors, len(tasks[0].out), len(fed), unmatched)
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
				if exact && (len(probed(t, fold.build, c.lkey, c.rkey, tasks[2].out)) != len(fed) || tasks[2].skipped != unmatched) {
					t.Fatalf("narrowed by the direct table: %d rows kept, %d skipped, want the %d that join", len(tasks[2].out), tasks[2].skipped, len(tasks[0].out)-unmatched)
				}
				if !exact && len(tasks[2].out) != len(tasks[0].out) || exact && len(tasks[2].out)+unmatched != len(tasks[0].out) || tasks[0].folded+tasks[2].folded != 0 {
					t.Fatalf("the consumers beside it: %d and %d rows, %d folded", len(tasks[0].out), len(tasks[2].out), tasks[0].folded+tasks[2].folded)
				}
				if len(fold.partials) != 1 || fold.partials[0] != tasks[1].part {
					t.Fatalf("%d partials registered with the fold", len(fold.partials))
				}
				runs = append(runs, fmt.Sprint(groupRows(tasks[1].part)))
			}
			if runs[0] != runs[1] {
				t.Fatalf("folded on vectors %s, on the bytes %s", runs[0], runs[1])
			}
		})
	}
	t.Run("through a join by a build column, over pages of two partitions", foldByBuildKeyAcrossPages)
	t.Run("memo: INTs and FLOATs of one value on different pages", foldMemoAcrossPages)
}

// foldMemoAcrossPages is TestPageKernelFold's case of one partial grouped by
// one scanned column over several pages, each a vector of its own kind: an
// INT and a FLOAT of one value are one group whichever page the memo first
// saw it on, and an INT beyond 2^53 — which a FLOAT equals, as the FLOAT
// equals the INT's neighbour — joins the group group would find for it, not
// one the memo remembered. On the vectors and on the bytes the partial is
// what groupTable.add makes of the same rows.
func foldMemoAcrossPages(t *testing.T) {
	I, F := tuple.I64, tuple.F64
	pages := [][]tuple.Tuple{
		{{I(1), I(10)}, {I(2), I(20)}, {I(1 << 60), I(1)}, {I(3), I(30)}},
		{{F(1), I(11)}, {F(2.5), I(25)}, {F(1 << 60), I(2)}, {F(3), I(31)}},
		{{I(1<<60 + 1), I(3)}, {I(2), I(21)}, {I(-3), I(-30)}},
		{{F(1 << 60), I(4)}, {F(2), I(22)}, {F(-3), I(-31)}, {F(math.Copysign(0, -1)), I(0)}},
	}
	keys, specs := []int{0}, []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(1)}, {Kind: expr.AggMin, Arg: expr.Col(1)}}
	var runs []string
	for _, vectors := range []bool{true, false} {
		fold := &scanFold{keys: keys, specs: specs}
		part := fold.partial(0)
		if part.memo == nil {
			t.Fatal("a partial grouped by one scanned column keeps no memo")
		}
		want := newGroupTable(keys, specs)
		k := newPageKernel(2)
		for _, rows := range pages {
			raw := pageOf(t, rows)
			if cols := vectorCols(t, raw, 2); !slices.Contains(cols, 0) {
				t.Fatalf("the key column of %v has no vector", rows)
			}
			l, err := page.Locate(raw, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !vectors {
				l = stripped(l)
			}
			k.run(raw, l, []pageTask{{prog: compileRowProgram(nil, nil, 2), fold: fold, part: part}})
			for _, r := range rows {
				want.add(r)
			}
		}
		got, added := groupRows(part), groupRows(want)
		if !slices.Equal(got, added) {
			t.Fatalf("vectors %v: folded over the pages\n%v\nadded row by row\n%v", vectors, got, added)
		}
		runs = append(runs, fmt.Sprint(got))
	}
	if runs[0] != runs[1] {
		t.Fatalf("folded on vectors %s, on the bytes %s", runs[0], runs[1])
	}
}

// foldByBuildKeyAcrossPages is TestPageKernelFold's case of a fold through a
// join grouped by a build column over a whole table: its pages split between
// two partitions, each folding into a partial of its own, on the vectors and
// on the bytes. The build side has a key twice (a probe row pairs with both)
// and two keys of one group, so a group is reached from several build rows;
// the partials absorbed are the iterator engine's answer, and each remembered
// its build rows' groups.
func foldByBuildKeyAcrossPages(t *testing.T) {
	I, F := tuple.I64, tuple.F64
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 32})
	dims := tuple.NewSchema(tuple.Col("cid", tuple.KindInt), tuple.Col("seg", tuple.KindInt), tuple.Col("w", tuple.KindFloat))
	// cid 3 twice; cids 1 and 4 both of segment 10; no probe row has cid 9.
	build := []tuple.Tuple{{I(1), I(10), F(0.5)}, {I(3), I(30), F(1)}, {I(4), I(10), F(-2)}, {I(3), I(31), F(0.25)}, {I(5), I(50), F(7)}, {I(9), I(90), F(9)}}
	probe := make([]tuple.Tuple, 1500)
	for i := range probe {
		probe[i] = tuple.Tuple{I(int64(i)), I(int64(i % 7)), F(float64(i%97) / 8)}
	}
	for _, c := range []struct {
		name   string
		schema *tuple.Schema
		rows   []tuple.Tuple
	}{{"d", dims, build}, {"t", testSchema(), probe}} {
		if _, err := mgr.CreateTable(c.name, c.schema); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Load(c.name, c.rows); err != nil {
			t.Fatal(err)
		}
	}
	keys := []int{1}
	specs := []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(3 + 2)}, {Kind: expr.AggAvg, Arg: expr.Col(3 + 2)},
		{Kind: expr.AggMin, Arg: expr.Col(3 + 0)}, {Kind: expr.AggMax, Arg: expr.Col(3 + 2)}, {Kind: expr.AggSum, Arg: expr.Col(2)},
		{Kind: expr.AggSum, Arg: expr.Mul(expr.Col(2), expr.Col(3+2))}}
	filter := expr.GE(expr.Col(0), expr.CInt(5))
	p := plan.NewGroupBy(plan.NewHashJoin(plan.NewTableScan("d", dims, nil, nil, false), plan.NewTableScan("t", testSchema(), filter, nil, false), 0, 1), keys, specs)
	want, err := volcano.New(mgr).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	src := heapSource{f: mgr.MustTable("t").Heap}
	pages := src.numPages()
	if pages < 4 {
		t.Fatalf("the table has %d pages, want several a partition", pages)
	}
	var runs []string
	for _, vectors := range []bool{true, false} {
		var from pageSource = src
		if !vectors {
			from = encodedOnly{src}
		}
		fold := &scanFold{keys: keys, specs: specs}
		joinedFold(fold, build, 3, 0, 1, nil)
		folded := 0
		for part := range 2 {
			k := newPageKernel(3)
			for ord := pages * int64(part) / 2; ord < pages*int64(part+1)/2; ord++ {
				tasks := []pageTask{{prog: compileRowProgram(filter, nil, 3), fold: fold, part: fold.partial(part), keys: fold.probe}}
				if _, err := buildPage(from, ord, k, tasks); err != nil {
					t.Fatal(err)
				}
				folded += tasks[0].folded
			}
		}
		total := newGroupTable(keys, specs)
		for _, part := range fold.partials {
			if part.ofBuild == nil {
				t.Fatal("a partial grouped by a build column remembers no build row's group")
			}
			total.absorb(part)
		}
		got := sdSorted(groupTuples(total))
		t.Logf("vectors %v: %d pairs folded over %d pages into %d groups", vectors, folded, pages, len(got))
		sdCompare(t, fmt.Sprintf("vectors %v, %d pairs folded over %d pages", vectors, folded, pages), p, groupTuples(total), sdSorted(want))
		runs = append(runs, fmt.Sprint(got))
	}
	if runs[0] != runs[1] {
		t.Fatalf("folded on vectors %s, on the bytes %s", runs[0], runs[1])
	}
}

// TestPageKernelDamagedPage: a slot, a tag or a length that is not what the
// layout says — on a page that is resident and already located, damaged
// through the write path (MarkDirty, then the bytes) or on the device (and the
// pool emptied) — gives the typed error at the next visit, no consumer a batch
// and the consumers that fold, one of them through a join, an untouched
// partial table; nothing is published, so the visit after that fails the same
// way — with the layout's vectors and without.
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
			for _, vectors := range []bool{true, false} {
				src := rawHeap(t, 2, good)
				var from pageSource = src
				if !vectors {
					from = encodedOnly{src}
				}
				pool, id := src.f.Pool(), buffer.PageID{File: src.f.Name}
				k := newPageKernel(2)
				visit := func() ([]pageTask, error) {
					tasks := programs(2, []expr.Pred{nil, expr.GT(expr.Col(0), expr.CInt(1)), nil, nil}, [][]int{nil, {1}, {}, nil})
					fold := &scanFold{keys: []int{1}, specs: []expr.AggSpec{{Kind: expr.AggCount}}}
					tasks[0].fold, tasks[0].part = fold, fold.partial(0) // the first served folds
					joined := &scanFold{keys: []int{1, 2 + 1}, specs: []expr.AggSpec{{Kind: expr.AggMax, Arg: expr.Col(2 + 0)}}}
					joinedFold(joined, []tuple.Tuple{{tuple.I64(2), tuple.Str("two")}, {tuple.F64(3), tuple.Str("three")}}, 2, 0, 0, nil)
					tasks[3].fold, tasks[3].part, tasks[3].keys = joined, joined.partial(0), joined.probe // and the last, through a join
					_, err := buildPage(from, 0, k, tasks)
					return tasks, err
				}
				if tasks, err := visit(); err != nil || len(tasks[1].out) != 2 || tasks[3].folded != 2 || pool.Stats().Layouts != 1 {
					t.Fatalf("%s, vectors %v: the undamaged page: %v, %d rows, %d pairs folded, %d layouts", name, vectors, err, len(tasks[1].out), tasks[3].folded, pool.Stats().Layouts)
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
						t.Errorf("%s through %s (vectors %v), the %s visit: got %v, want a *tuple.EncodingError or a *page.CorruptError", name, through, vectors, nth, err)
					}
					for i := range tasks {
						if tasks[i].out != nil {
							t.Errorf("%s through %s (vectors %v): consumer %d was handed %d rows of a damaged page", name, through, vectors, i, len(tasks[i].out))
						}
					}
					for _, i := range []int{0, 3} {
						if n := len(tasks[i].part.states); n != 0 || tasks[i].folded != 0 || tasks[i].skipped != 0 {
							t.Errorf("%s through %s (vectors %v): consumer %d folded %d groups from a damaged page", name, through, vectors, i, n)
						}
					}
					if n := pool.Stats().Layouts; n != 0 {
						t.Errorf("%s through %s (vectors %v): %d layouts are published of a damaged page", name, through, vectors, n)
					}
				}
			}
		}
	}
}
