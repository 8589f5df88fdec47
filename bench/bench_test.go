package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{0, 10}, 0.9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{3, 0, 27}); math.Abs(got-9) > 1e-12 {
		t.Errorf("a class without samples must be left out: got %v, want 9", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

// A class median is not moved by how often the class was drawn; the
// geometric mean across classes is what the end-to-end latency reports.
func TestAcrossClassesIgnoresTheMix(t *testing.T) {
	var few, many []sample
	for i := 0; i < 10; i++ {
		few = append(few, sample{scanAgg, 4 * time.Millisecond, time.Millisecond})
		many = append(many, sample{scanAgg, 4 * time.Millisecond, time.Millisecond})
	}
	few = append(few, sample{topN, 16 * time.Millisecond, time.Millisecond})
	for i := 0; i < 100; i++ {
		many = append(many, sample{topN, 16 * time.Millisecond, time.Millisecond})
	}
	a := acrossClasses(classLatencies(few, 0, time.Second), 0.5)
	b := acrossClasses(classLatencies(many, 0, time.Second), 0.5)
	if math.Abs(a-8) > 1e-9 || math.Abs(b-8) > 1e-9 {
		t.Errorf("geomean of class medians = %v and %v, want 8 for both mixes", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps a: the union counts once
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 130},   // sticks out: only the part inside counts
		{Name: "a1", ID: 4, Parent: 1, Start: 10, End: 25},   // grandchild takes from a, not from op
		{Name: "other", ID: 5, Parent: -1, Start: 0, End: 7}, // a second root
	}
	want := []time.Duration{100 - 50 - 10, 30 - 15, 30, 40, 15, 7}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestLadderStage(t *testing.T) {
	spans := []span{
		{Name: "sql.parse", Op: 1, Class: "x", Start: 0, End: 2000},
		{Name: "sql.parse", Op: 2, Class: "x", Start: 0, End: 4000},
		{Name: "sql.parse", Op: 3, Class: "x", Start: 0, End: 9000},
		{Name: "sql.parse", Op: 4, Class: "y", Start: 0, End: 16000},
		{Name: "other", Op: 5, Class: "z", Start: 0, End: 1},
	}
	if got := ladderStage(groupOps(spans), "sql.parse", 1e3); math.Abs(got-8) > 1e-9 {
		t.Errorf("ladder stage = %v us, want geomean(median(2,4,9), 16) = 8", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) side { return side{median: m, spread: 0.02, n: 5} }
	for _, tc := range []struct {
		d    metricDef
		a, b side
		want string
	}{
		{lower, steady(10), steady(10.9), "ok"},
		{lower, steady(10), steady(11.1), "regression"},
		{lower, steady(10), steady(5), "ok"},
		{higher, steady(100), steady(91), "ok"},
		{higher, steady(100), steady(89), "regression"},
		{higher, steady(100), steady(150), "ok"},
		{lower, side{median: 10, spread: 0.2, n: 5}, steady(12), "unresolved"},
		{lower, steady(10), side{median: 12, spread: 0.11, n: 5}, "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a.median, tc.b.median, got, tc.want)
		}
	}
	if s := summarize([]float64{10, 12, 11}); s.median != 11 || math.Abs(s.spread-2.0/11) > 1e-12 {
		t.Errorf("under four runs the spread is the range over the median: got %+v", s)
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Error("BENCHMARK.json differs from the tables in defs.go; regenerate it: go run ./bench -contract > BENCHMARK.json")
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 {
			t.Errorf("metric name %q is used twice or too long", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs the four workloads end to end over the wire, on a tenth
// of the data and sub-second windows. It asserts names, units, usable
// values and correct answers, and nothing about how long anything took.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			w.orders /= 10
			w.events /= 10
			cfg := config{seed: 5, seconds: 0.8, traced: true, setups: 1, outDir: t.TempDir()}
			rec, err := runWorkload(context.Background(), &w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %s", rec.Attempted, rec.Failed, rec.Failure)
			}
			check := func(kind string, defs []metricDef, got map[string]value, positive bool) {
				if len(got) != len(defs) {
					t.Errorf("%d %s metrics reported, %d declared", len(got), kind, len(defs))
				}
				for _, d := range defs {
					v, ok := got[d.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s is not reported", kind, d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s is in %q, declared %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || positive && v.Value <= 0:
						t.Errorf("%s = %v", d.Name, v.Value)
					}
				}
			}
			check("end-to-end", endToEnd, rec.EndToEnd, true)
			check("per-layer", perLayer, rec.PerLayer, false)
			for _, classes := range w.conns {
				for _, c := range classes {
					if v := rec.PerLayer["client.p50_ms."+classNames[c]]; v.Samples == 0 || v.Value <= 0 {
						t.Errorf("class %s was never timed", classNames[c])
					}
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// A reply that differs from the reference must count as a failure.
func TestWrongAnswerIsCaught(t *testing.T) {
	w := *findWorkload("serve_mixed")
	w.orders /= 20
	w.events /= 20
	ctx := context.Background()
	cfg := config{seed: 2, setups: 1, outDir: t.TempDir()}
	in, _, err := setUp(ctx, &w, generate(&w, cfg.seed), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.shutDown()
	c := in.conns[0]
	for _, cls := range c.classes {
		o := c.draw(cls)
		if c.run(ctx, &o); c.failed != 0 {
			t.Fatalf("%s: a right answer was refused: %v", classNames[cls], c.firstErr)
		}
	}
	in.ref.bal[7]++
	in.ref.amount[7]++
	in.ref.fixed[streamAll].hash++
	for _, o := range []op{
		{class: pointText, key: 7, text: "SELECT bal FROM accounts WHERE aid = 7"},
		{class: pointIndexed, key: 7, text: "SELECT amount FROM orders WHERE oid = 7"},
		{class: streamAll, text: sqlStreamAll},
	} {
		before := c.failed
		if c.run(ctx, &o); c.failed != before+1 {
			t.Errorf("%s: a wrong answer went unnoticed", classNames[o.class])
		}
	}
}
