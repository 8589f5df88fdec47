package ops

import (
	"errors"
	"fmt"
	"testing"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// FuzzScanPageBytes hands a scan arbitrary bytes as the one page of a heap, on
// a device and through a pool, three times: the first visit derives the
// layout, the second is served from the frame's, the third from the frame's
// stripped of its number vectors — and must come out exactly as the second
// did. The outcome of each is every consumer's
// rows — then exactly what decoding the whole page and filtering the decoded
// rows gives (for the consumer a Top-N bounds, filtering them by the bound
// too, which leaves out exactly the rest of those its own comparison keeps),
// for the consumer that folds, its partial merged equal to
// aggregating those, and for the two that fold through a build table — one of
// keys of every kind, which the join hands down as a bitmap, one of INT and
// DATE keys, which it hands down as a direct table —, to aggregating what
// probeTable makes of those — or a typed error with no
// consumer handed anything and no layout published: never a panic, an
// out-of-range slice, a half-built row or a half-folded page.
func FuzzScanPageBytes(f *testing.F) {
	const width = 4
	pg := page.New(256)
	for i := 0; i < 5; i++ {
		row := tuple.Tuple{tuple.I64(int64(i)), tuple.F64(float64(i) / 2), tuple.Str(fmt.Sprint("s", i)), tuple.Date(int64(19000 + i))}
		if _, err := pg.InsertTuple(row); err != nil {
			f.Fatal(err)
		}
	}
	if err := pg.DeleteAt(2); err != nil {
		f.Fatal(err)
	}
	good := append([]byte(nil), pg.Bytes()...)
	f.Add(good)
	for _, at := range []int{0, 4, 6, 250, 240, 230} { // slot count, a slot, a kind tag, a string length
		torn := append([]byte(nil), good...)
		torn[at] ^= 0xff
		f.Add(torn)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0, 0})
	floats := page.New(256) // the join's probe key a FLOAT column: its vector is hashed and probed
	for i := 0; i < 5; i++ {
		if _, err := floats.InsertTuple(tuple.Tuple{tuple.F64(float64(i)), tuple.I64(int64(i % 2)), tuple.Str("s"), tuple.Date(19000)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(floats.Bytes())

	filters := []expr.Pred{
		nil,
		expr.GE(expr.Col(0), expr.CFloat(1.5)),
		expr.AndOf(expr.LT(expr.Col(2), expr.CStr("s3")), expr.NE(expr.Col(3), expr.CInt(5))),
		expr.OrOf(expr.EQ(expr.Col(1), expr.Col(0)), expr.NotOf(expr.InOf(expr.Col(2), tuple.Str("s1")))),
	}
	projects := [][]int{nil, {2}, {3, 0, 0}, {1, 2}}
	// The last consumer wants the fourth's rows as groups: a TEXT and a FLOAT
	// key under every kind of aggregate.
	filters, projects = append(filters, filters[3]), append(projects, projects[3])
	keys := []int{1, 0}
	specs := []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(0)}, {Kind: expr.AggMin, Arg: expr.Col(1)},
		{Kind: expr.AggMax, Arg: expr.Add(expr.Col(0), expr.CInt(1))}, {Kind: expr.AggAvg, Arg: expr.Col(1)}}

	// And one more the second's rows as (id, s, f), joined on id with a build
	// side of every kind of key, one of them twice, and grouped by a column of
	// either side.
	filters, projects = append(filters, filters[1]), append(projects, []int{0, 2, 1})

	// And the last the second's rows as (f, s) under a Top-N's bound on f, a
	// FLOAT literal: a FLOAT vector, an INT vector, or the bytes of any kind.
	filters, projects = append(filters, expr.AndOf(filters[1], fuzzBound)), append(projects, []int{1, 2})

	// And the eighth the sixth's rows, joined the same way with a build side
	// of INT and DATE keys.
	filters, projects = append(filters, filters[5]), append(projects, projects[5])

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return // a device has no blocks of no bytes (page.FuzzLocate has them)
		}
		src := rawHeap(t, width, raw)
		fuzzVisit(t, src, src, raw, false, filters, projects, keys, specs)
		onVectors := fuzzVisit(t, src, src, raw, true, filters, projects, keys, specs)
		if onBytes := fuzzVisit(t, src, encodedOnly{src}, raw, true, filters, projects, keys, specs); onBytes != onVectors {
			t.Fatalf("the kernel on the bytes: %s\non the vectors: %s", onBytes, onVectors)
		}
	})
}

// The seventh consumer's bound: what a descending Top-N whose n-th row has
// f = 1 hands its scan.
var fuzzBound = expr.GE(expr.Col(1), expr.CFloat(1))

// The sixth consumer's join and aggregation, in build columns (key, tag) then
// the scan's output columns; the eighth's are the same over fuzzIntBuild.
var (
	fuzzBuild = []tuple.Tuple{{tuple.F64(3), tuple.Str("three")}, {tuple.I64(4), tuple.Str("four")}, {tuple.I64(3), tuple.Str("again")},
		{tuple.Str("s1"), tuple.Str("text")}, {tuple.Date(19001), tuple.Str("date")}, {tuple.F64(0.5), tuple.Str("half")}}
	fuzzIntBuild = []tuple.Tuple{{tuple.I64(3), tuple.Str("three")}, {tuple.I64(4), tuple.Str("four")}, {tuple.I64(3), tuple.Str("again")},
		{tuple.Date(1), tuple.Str("date")}, {tuple.I64(-2), tuple.Str("negative")}}
	fuzzJoinKeys  = []int{1, 2 + 1}
	fuzzJoinSpecs = []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(2 + 2)}, {Kind: expr.AggMin, Arg: expr.Col(0)},
		{Kind: expr.AggMax, Arg: expr.Add(expr.Col(0), expr.Col(2+2))}, {Kind: expr.AggAvg, Arg: expr.Col(2 + 0)}}
)

// fuzzVisit is one visit of FuzzScanPageBytes' page through from, held to the
// decoder; it returns what every consumer got (or the error).
func fuzzVisit(t *testing.T, src heapSource, from pageSource, raw []byte, warm bool, filters []expr.Pred, projects [][]int, keys []int, specs []expr.AggSpec) string {
	const width = 4
	{
		progs := programs(width, filters, projects)
		fold := &scanFold{keys: keys, specs: specs}
		progs[4].fold, progs[4].part = fold, fold.partial(0)
		joined := &scanFold{keys: fuzzJoinKeys, specs: fuzzJoinSpecs}
		joinedFold(joined, fuzzBuild, 2, 0, 0, projects[5])
		progs[5].fold, progs[5].part, progs[5].keys = joined, joined.partial(0), joined.probe
		direct := &scanFold{keys: fuzzJoinKeys, specs: fuzzJoinSpecs}
		joinedFold(direct, fuzzIntBuild, 2, 0, 0, projects[7])
		if joined.probe.Dense != nil || direct.probe.Dense == nil {
			t.Fatal("the build side of every kind took a direct table, or the one of INTs and DATEs did not")
		}
		progs[7].fold, progs[7].part, progs[7].keys = direct, direct.partial(0), direct.probe
		bound := colCmp(1, fuzzBound.Op, fuzzBound.R.(*expr.Const).V)
		progs[6].prog, progs[6].bound = compileRowProgram(filters[1], projects[6], width), &bound
		fresh, err := buildPage(from, 0, newPageKernel(width), progs)
		outs := make([]tbuf.Batch, len(progs))
		for i := range progs {
			outs[i] = progs[i].out
		}
		if err != nil {
			var ee *tuple.EncodingError
			var ce *page.CorruptError
			if !errors.As(err, &ee) && !errors.As(err, &ce) {
				t.Fatalf("untyped error: %v", err)
			}
			for i, out := range outs {
				if out != nil {
					t.Fatalf("consumer %d was handed %d rows of a page that failed: %v", i, len(out), err)
				}
			}
			if n := len(progs[4].part.states) + len(progs[5].part.states) + len(progs[7].part.states); n != 0 {
				t.Fatalf("%d groups were folded from a page that failed: %v", n, err)
			}
			if n := src.f.Pool().Stats().Layouts; n != 0 {
				t.Fatalf("%d layouts published of a page that failed: %v", n, err)
			}
			return err.Error()
		}
		if n := src.f.Pool().Stats().Layouts; fresh == warm || n != 1 {
			t.Fatalf("warm %v: the visit derived a layout: %v; %d published", warm, fresh, n)
		}
		// The walk accepted every live slot, so the whole-page decoder can
		// read the same bytes.
		rows, err := page.FromBytes(raw).Tuples(width)
		if err != nil {
			t.Fatalf("the walk accepted a page the decoder rejects: %v", err)
		}
		for i := range progs {
			var want []tuple.Tuple
			for _, r := range rows {
				if filters[i] != nil && !filters[i].Test(r) {
					continue
				}
				if projects[i] != nil {
					r = r.Project(projects[i])
				}
				want = append(want, r)
			}
			if i == 4 || i == 5 || i == 7 {
				keys, specs := keys, specs
				switch i {
				case 5:
					keys, specs, want = fuzzJoinKeys, fuzzJoinSpecs, probed(t, joined.build, 0, 0, want)
				case 7:
					keys, specs, want = fuzzJoinKeys, fuzzJoinSpecs, probed(t, direct.build, 0, 0, want)
				}
				merged, added := newGroupTable(keys, specs), newGroupTable(keys, specs)
				merged.absorb(progs[i].part)
				for _, r := range want {
					added.add(r)
				}
				if got, want := fmt.Sprint(groupRows(merged)), fmt.Sprint(groupRows(added)); got != want || outs[i] != nil {
					t.Fatalf("consumer %d folded then merged: %s\ndecoded, filtered, aggregated: %s (and %d rows handed out)", i, got, want, len(outs[i]))
				}
				continue
			}
			if len(outs[i]) != len(want) {
				t.Fatalf("consumer %d: %d rows, decode-then-filter gives %d", i, len(outs[i]), len(want))
			}
			if n := len(outs[1]) - len(want); i == 6 && progs[i].bounded != n {
				t.Fatalf("the bound left out %d rows, decode-then-filter %d", progs[i].bounded, n)
			}
			for j, got := range outs[i] {
				if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want[j]) {
					t.Fatalf("consumer %d row %d: %#v, decode-then-filter gives %#v", i, j, got, want[j])
				}
			}
		}
		return fmt.Sprintf("%#v %v %v %#v %v", outs[:4], groupRows(progs[4].part), groupRows(progs[5].part), outs[6], groupRows(progs[7].part))
	}
}
