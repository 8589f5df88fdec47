package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// BenchmarkPageKernel is the page kernel alone on resident pages of the
// benchmark's orders shape (oid INT, cust INT, region INT, priority INT,
// amount FLOAT; 8 kB pages, every page located once before the clock
// starts), one sub-benchmark a statement class of olap_hot, each on the
// layouts as located (vectors) and with the vectors stripped (encoded): the
// in-place comparisons alone (a filter no row passes), scan_agg's scalar fold,
// the group-by fold, a fold grouped by oid (a group per row: its memo misses
// on every row), the fold through a hash join on cust grouped by a scanned
// column and, join_groupby's shape, by a build column — whose keys, a quarter
// of cust's, take a direct table —, the same with one key far off, so that
// the span takes the bitmap, and building the rows a filter keeps. It reports
// ns/row, a row being one stored row of a page.
//
//	go test -run '^$' -bench BenchmarkPageKernel ./internal/ops/
func BenchmarkPageKernel(b *testing.B) {
	const width, customers = 5, 1000
	rng := rand.New(rand.NewSource(1))
	type located struct {
		raw []byte
		l   *buffer.Layout
	}
	var pages []located
	rows, oid := 0, 0
	for len(pages) < 16 {
		pg := page.New(8192)
		for {
			row := tuple.Tuple{tuple.I64(int64(oid)), tuple.I64(int64(rng.Intn(customers))), tuple.I64(int64(rng.Intn(7))),
				tuple.I64(int64(rng.Intn(5))), tuple.F64(float64(rng.Intn(997)))}
			if _, err := pg.InsertTuple(row); err != nil {
				break
			}
			oid++
		}
		l, err := page.Locate(pg.Bytes(), width)
		if err != nil {
			b.Fatal(err)
		}
		pages, rows = append(pages, located{pg.Bytes(), l}), rows+l.Rows
	}
	// customers (cid, segment, balance), a quarter of them in segment 1: the
	// join's build side once its scan has filtered it.
	var build []tuple.Tuple
	for cid := 0; cid < customers; cid += 4 {
		build = append(build, tuple.Tuple{tuple.I64(int64(cid)), tuple.I64(1), tuple.F64(float64(cid % 500))})
	}
	sparse := append(append([]tuple.Tuple(nil), build...), tuple.Tuple{tuple.I64(1 << 40), tuple.I64(1), tuple.F64(0)})
	count := expr.AggSpec{Kind: expr.AggCount}
	classes := []struct {
		name   string
		filter expr.Pred
		task   func() pageTask
	}{
		{"compare", expr.AndOf(expr.LT(expr.Col(4), expr.CInt(500)), expr.EQ(expr.Col(3), expr.CInt(9))), nil},
		{"scalar-fold", nil, func() pageTask {
			f := &scanFold{specs: []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(0)}, count}}
			return pageTask{prog: compileRowProgram(expr.LT(expr.Col(4), expr.CInt(500)), []int{4}, width), fold: f, part: f.partial(0)}
		}},
		{"fold", expr.EQ(expr.Col(3), expr.CInt(2)), func() pageTask {
			f := &scanFold{keys: []int{0}, specs: []expr.AggSpec{count, {Kind: expr.AggAvg, Arg: expr.Col(1)}}}
			return pageTask{prog: compileRowProgram(expr.EQ(expr.Col(3), expr.CInt(2)), []int{2, 4}, width), fold: f, part: f.partial(0)}
		}},
		{"fold-by-oid", nil, func() pageTask {
			f := &scanFold{keys: []int{0}, specs: []expr.AggSpec{count, {Kind: expr.AggSum, Arg: expr.Col(1)}}}
			return pageTask{prog: compileRowProgram(nil, []int{0, 4}, width), fold: f, part: f.partial(0)}
		}},
		{"fold-through-join", nil, func() pageTask {
			f := &scanFold{keys: []int{3 + 1}, specs: []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(3 + 2)}}}
			joinedFold(f, build, 3, 0, 0, []int{1, 2, 4})
			return pageTask{prog: compileRowProgram(nil, []int{1, 2, 4}, width), fold: f, part: f.partial(0), keys: f.probe}
		}},
		{"fold-through-join-by-build-key", nil, func() pageTask {
			f := &scanFold{keys: []int{1}, specs: []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(3 + 1)}}}
			joinedFold(f, build, 3, 0, 0, []int{1, 4})
			return pageTask{prog: compileRowProgram(nil, []int{1, 4}, width), fold: f, part: f.partial(0), keys: f.probe}
		}},
		{"fold-through-join-by-build-key-sparse", nil, func() pageTask {
			f := &scanFold{keys: []int{1}, specs: []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(3 + 1)}}}
			joinedFold(f, sparse, 3, 0, 0, []int{1, 4})
			return pageTask{prog: compileRowProgram(nil, []int{1, 4}, width), fold: f, part: f.partial(0), keys: f.probe}
		}},
		{"build", expr.LT(expr.Col(4), expr.CInt(500)), nil},
	}
	for _, c := range classes {
		for _, vectors := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/vectors=%v", c.name, vectors), func(b *testing.B) {
				k := newPageKernel(width)
				tasks := []pageTask{{prog: compileRowProgram(c.filter, []int{0, 4}, width)}}
				if c.task != nil {
					tasks[0] = c.task()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, p := range pages {
						l := p.l
						if !vectors {
							l = stripped(l)
						}
						k.run(p.raw, l, tasks)
						tasks[0].out = nil
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
