package qpipe_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"qpipe"
	"qpipe/client"
)

// swRow is the model's copy of one row of w (id INT, f FLOAT, d DATE, s TEXT).
type swRow struct {
	f float64
	d int64
	s string
}

// swQuery is a scan statement with its answer computed by hand on the model.
type swQuery struct {
	text   string
	answer func(state map[int64]swRow) []string
}

func swRows(state map[int64]swRow, keep func(id int64, r swRow) bool, project func(id int64, r swRow) qpipe.Row) []string {
	var out []string
	for id, r := range state {
		if keep(id, r) {
			out = append(out, fmt.Sprint(project(id, r)))
		}
	}
	sort.Strings(out)
	return out
}

// swDraw draws a statement the scan µEngine answers on the page bytes:
// in-place comparisons on every kind, residuals (OR, NOT, BETWEEN, IN,
// arithmetic), projections that drop and reorder columns, and none — and,
// through column pruning, scans that produce only what an aggregate, a
// group-by or a sort below a projection reads.
func swDraw(rng *rand.Rand) swQuery {
	x := float64(rng.Intn(400)) / 4
	k := int64(rng.Intn(1300))
	day := int64(19000 + rng.Intn(60))
	str := fmt.Sprintf("s%02d", rng.Intn(20))
	all := func(id int64, r swRow) qpipe.Row {
		return qpipe.Row{qpipe.IntValue(id), qpipe.FloatValue(r.f), qpipe.DateValue(r.d), qpipe.StringValue(r.s)}
	}
	switch rng.Intn(9) {
	case 0:
		return swQuery{fmt.Sprintf("SELECT s, id FROM w WHERE f < %s AND s >= '%s'", apFloat(x), str),
			func(st map[int64]swRow) []string {
				return swRows(st, func(_ int64, r swRow) bool { return r.f < x && r.s >= str },
					func(id int64, r swRow) qpipe.Row { return qpipe.Row{qpipe.StringValue(r.s), qpipe.IntValue(id)} })
			}}
	case 1:
		return swQuery{fmt.Sprintf("SELECT * FROM w WHERE id <= %d.5 AND d > %s", k, apDate(day)),
			func(st map[int64]swRow) []string {
				return swRows(st, func(id int64, r swRow) bool { return float64(id) <= float64(k)+0.5 && r.d > day }, all)
			}}
	case 2:
		return swQuery{fmt.Sprintf("SELECT id, d FROM w WHERE d BETWEEN %s AND %s OR f = %s", apDate(day), apDate(day+3), apFloat(x)),
			func(st map[int64]swRow) []string {
				return swRows(st, func(_ int64, r swRow) bool { return (r.d >= day && r.d <= day+3) || r.f == x },
					func(id int64, r swRow) qpipe.Row { return qpipe.Row{qpipe.IntValue(id), qpipe.DateValue(r.d)} })
			}}
	case 3:
		return swQuery{fmt.Sprintf("SELECT f FROM w WHERE NOT (f >= %s) AND id + 7 > %d AND s IN ('%s', 's03', 'grown-to-a-longer-string')", apFloat(x), k, str),
			func(st map[int64]swRow) []string {
				return swRows(st, func(id int64, r swRow) bool {
					return !(r.f >= x) && id+7 > k && (r.s == str || r.s == "s03" || r.s == "grown-to-a-longer-string")
				}, func(_ int64, r swRow) qpipe.Row { return qpipe.Row{qpipe.FloatValue(r.f)} })
			}}
	case 4:
		return swQuery{fmt.Sprintf("SELECT * FROM w WHERE s <> '%s'", str),
			func(st map[int64]swRow) []string {
				return swRows(st, func(_ int64, r swRow) bool { return r.s != str }, all)
			}}
	case 5: // the plan reads no column of the scan: cols=[]
		return swQuery{fmt.Sprintf("SELECT count(*) AS n FROM w WHERE s IN ('%s', 's03') OR d BETWEEN %s AND %s", str, apDate(day), apDate(day+3)),
			func(st map[int64]swRow) []string {
				n := int64(0)
				for _, r := range st {
					if r.s == str || r.s == "s03" || (r.d >= day && r.d <= day+3) {
						n++
					}
				}
				return []string{fmt.Sprint(qpipe.Row{qpipe.IntValue(n)})}
			}}
	case 6: // group key and aggregate argument are the scan's columns, the filter's is not
		return swQuery{fmt.Sprintf("SELECT d, count(*) AS n, sum(f) AS sf FROM w WHERE id < %d GROUP BY d", k),
			func(st map[int64]swRow) []string {
				type group struct {
					n  int64
					sf float64
				}
				groups := map[int64]group{}
				for id, r := range st {
					if id < k {
						g := groups[r.d]
						groups[r.d] = group{g.n + 1, g.sf + r.f}
					}
				}
				var out []string
				for d, g := range groups {
					out = append(out, fmt.Sprint(qpipe.Row{qpipe.DateValue(d), qpipe.IntValue(g.n), qpipe.FloatValue(g.sf)}))
				}
				sort.Strings(out)
				return out
			}}
	case 7: // sorted on a column the select list drops, a computed column above
		return swQuery{fmt.Sprintf("SELECT s, f * 4 AS quarters FROM w WHERE d > %s ORDER BY id", apDate(day)),
			func(st map[int64]swRow) []string {
				return swRows(st, func(_ int64, r swRow) bool { return r.d > day },
					func(_ int64, r swRow) qpipe.Row { return qpipe.Row{qpipe.StringValue(r.s), qpipe.FloatValue(r.f * 4)} })
			}}
	default:
		return swQuery{fmt.Sprintf("SELECT count(*) AS n, sum(f) AS sf FROM w WHERE id < %d", k),
			func(st map[int64]swRow) []string {
				n, sum := int64(0), 0.0 // quarters: exact in any order
				for id, r := range st {
					if id < k {
						n, sum = n+1, sum+r.f
					}
				}
				return []string{fmt.Sprint(qpipe.Row{qpipe.IntValue(n), qpipe.FloatValue(sum)})}
			}}
	}
}

// TestScansBesideAWriter: filtered, projected scans run — embedded and over
// the wire, at parallelism 1 and 4, with OSP and without — beside a writer
// committing UPDATEs that grow and shrink rows, DELETEs and INSERTs. Every
// reply is the answer, computed by hand on a model of the table, as of one
// commit between the last acknowledged before the statement was sent and
// the last begun before its reply was complete (Berkholz et al.: what a
// reader is handed equals recomputation from the stored rows at one
// instant). The pool holds the whole table, so between two commits a scan is
// served from the layouts an earlier scan left in the frames: after each
// commit is acknowledged the statement is asked twice more with no writer
// beside it — both replies are that commit's answer, and the second derives
// no page's layout.
func TestScansBesideAWriter(t *testing.T) {
	ctx := context.Background()
	db := apOpen(t, qpipe.Options{})
	if _, err := db.Exec(ctx, "CREATE TABLE w (id INT, f FLOAT, d DATE, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260930))
	model := map[int64]swRow{}
	var rows []qpipe.Row
	for id := int64(0); id < 1200; id++ {
		r := swRow{f: float64(rng.Intn(400)) / 4, d: int64(19000 + rng.Intn(60)), s: fmt.Sprintf("s%02d", rng.Intn(20))}
		model[id] = r
		rows = append(rows, qpipe.R(id, r.f, qpipe.DateValue(r.d), r.s))
	}
	if err := db.Load("w", rows); err != nil {
		t.Fatal(err)
	}

	const commits = 120
	// history[i] is the table after commit i, published before the commit
	// is sent; begun and acked say how far the writer is.
	history := make([]atomic.Pointer[map[int64]swRow], commits+1)
	history[0].Store(&model)
	var begun, acked atomic.Int64
	release, writerDone := make(chan struct{}), make(chan struct{})
	committed := make(chan struct{}, 1) // one token a commit acknowledged (or refused whole)
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(7))
		nextID := int64(1200)
		for i := 1; i <= commits; i++ {
			if _, ok := <-release; !ok {
				return
			}
			prev := history[i-1].Load()
			next := make(map[int64]swRow, len(*prev))
			for id, r := range *prev {
				next[id] = r
			}
			var text string
			switch i % 4 {
			case 0: // rows of one day move and get a shorter string
				day := int64(19000 + wrng.Intn(60))
				text = fmt.Sprintf("UPDATE w SET f = f + 0.25, s = '' WHERE d = %s", apDate(day))
				for id, r := range next {
					if r.d == day {
						r.f, r.s = r.f+0.25, ""
						next[id] = r
					}
				}
			case 1: // one row grows: its page is repacked
				id := int64(wrng.Intn(1200))
				text = fmt.Sprintf("UPDATE w SET s = 'grown-to-a-longer-string' WHERE id = %d", id)
				if r, ok := next[id]; ok {
					r.s = "grown-to-a-longer-string"
					next[id] = r
				}
			case 2:
				lo := int64(wrng.Intn(1200))
				text = fmt.Sprintf("DELETE FROM w WHERE id BETWEEN %d AND %d", lo, lo+5)
				for id := lo; id <= lo+5; id++ {
					delete(next, id)
				}
			default:
				r := swRow{f: float64(wrng.Intn(400)) / 4, d: int64(19000 + wrng.Intn(60)), s: fmt.Sprintf("s%02d", wrng.Intn(20))}
				text = fmt.Sprintf("INSERT INTO w VALUES (%d, %s, %s, '%s')", nextID, apFloat(r.f), apDate(r.d), r.s)
				next[nextID] = r
				nextID++
			}
			history[i].Store(&next)
			begun.Store(int64(i))
			if _, err := db.Exec(ctx, text); err != nil {
				// A growing row that does not fit its page is refused whole:
				// the table stays as it was (a reader that started before
				// this commit also tries the state before it).
				if i%4 != 1 {
					t.Errorf("%s: %v", text, err)
					return
				}
				history[i].Store(prev)
			}
			acked.Store(int64(i))
			committed <- struct{}{}
		}
	}()

	conn := apServe(t, db)
	// Scans sent after a write to the table: those that located no page, and
	// those that had to locate some.
	servedWarm, servedAfresh := 0, 0
	for n := 0; n < commits && !t.Failed(); n++ {
		q := swDraw(rng)
		par := 1 + 3*(n%2)
		osp := n%4 < 2
		first := acked.Load()
		select {
		case release <- struct{}{}:
		case <-writerDone:
			continue
		}
		var got []qpipe.Row
		var err error
		opts := []qpipe.QueryOption{qpipe.WithParallelism(par)}
		if !osp {
			opts = append(opts, qpipe.WithoutOSP())
		}
		afresh := false // some scan since the commit located a page
		if n%3 == 0 {
			copts := []client.Option{client.WithParallelism(par)}
			if !osp {
				copts = append(copts, client.WithoutOSP())
			}
			var wr *client.Rows
			if wr, err = conn.Query(ctx, q.text, copts...); err == nil {
				got, err = wr.All()
			}
		} else {
			var res *qpipe.Result
			if res, err = db.Query(ctx, q.text, opts...); err == nil {
				got, err = res.All()
				afresh = res.Stats().PagesLocated.Load() > 0
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", q.text, err)
		}
		last := begun.Load()
		matched := false
		for i := first; i <= last && !matched; i++ {
			matched = equalRows(apSorted(got), q.answer(*history[i].Load()))
		}
		if !matched {
			t.Fatalf("%s (parallelism %d, osp %v): the reply's %d rows match no table state between commits %d and %d (%d rows then, %d now)",
				q.text, par, osp, len(got), first, last, len(q.answer(*history[first].Load())), len(q.answer(*history[last].Load())))
		}
		// The commit is in; nothing is written until the next release.
		select {
		case <-committed:
		case <-writerDone:
			continue
		}
		for _, nth := range []string{"first", "second"} {
			res, err := db.Query(ctx, q.text, opts...)
			if err != nil {
				t.Fatalf("%s: %v", q.text, err)
			}
			if got, err = res.All(); err != nil {
				t.Fatalf("%s: %v", q.text, err)
			}
			if want := q.answer(*history[acked.Load()].Load()); !equalRows(apSorted(got), want) {
				t.Fatalf("%s (parallelism %d, osp %v), the %s time after commit %d: %d rows, want %d", q.text, par, osp, nth, acked.Load(), len(got), len(want))
			}
			located := res.Stats().PagesLocated.Load()
			afresh = afresh || located > 0
			if nth == "second" && (located != 0 || res.Stats().PagesVisited.Load() == 0) {
				t.Fatalf("%s, the second time after commit %d: %d of %d pages located", q.text, acked.Load(), located, res.Stats().PagesVisited.Load())
			}
		}
		servedWarm++
		if afresh {
			servedAfresh++
		}
	}
	close(release)
	<-writerDone
	t.Logf("after a write to the table: %d scans located no page; after %d of the commits one located some", servedWarm, servedAfresh)
	if servedWarm < 50 || servedAfresh < 50 {
		t.Fatalf("after a write to the table %d scans located no page and after %d commits one located some: want at least 50 of each", servedWarm, servedAfresh)
	}
}
