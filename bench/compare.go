package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns loads a set of runs: one record per line, as -out appends them.
func readRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side is one set's values of one metric on one workload.
type side struct {
	median, spread float64 // spread: quartile distance (range, under four runs) over the median
	n              int
}

func summarize(xs []float64) side {
	sort.Float64s(xs)
	s := side{median: quantile(xs, 0.5), n: len(xs)}
	width := xs[len(xs)-1] - xs[0]
	if len(xs) >= 4 {
		width = quantile(xs, 0.75) - quantile(xs, 0.25)
	}
	s.spread = ratio(width, s.median)
	return s
}

// verdict judges B against A for one metric: worse by more than the bound
// is a regression, unless the runs inside a side disagree by more than the
// bound themselves, which resolves nothing.
func verdict(d metricDef, a, b side) (deltaPct float64, word string) {
	worse := ratio(b.median-a.median, a.median)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread > d.Bound || b.spread > d.Bound:
		word = "unresolved"
	case worse > d.Bound:
		word = "regression"
	default:
		word = "ok"
	}
	return 100 * ratio(b.median-a.median, a.median), word
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any of them regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	var sets [2]map[string]map[string][]float64 // workload -> metric -> values
	for i, path := range []string{pathA, pathB} {
		recs, err := readRuns(path)
		if err != nil {
			return false, err
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			if !r.Correct {
				return false, fmt.Errorf("%s holds an incorrect run of %s: %s", path, r.Workload, r.Failure)
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, v := range r.EndToEnd {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], v.Value)
			}
		}
	}
	fmt.Fprintf(out, "%-16s %-14s %12s %7s %3s %12s %7s %3s %8s %6s  %s\n",
		"workload", "metric", "A median", "spread", "n", "B median", "spread", "n", "delta", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a, b := summarize(xa), summarize(xb)
			delta, word := verdict(d, a, b)
			regressed = regressed || word == "regression"
			fmt.Fprintf(out, "%-16s %-14s %12.4f %6.1f%% %3d %12.4f %6.1f%% %3d %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, a.median, 100*a.spread, a.n, b.median, 100*b.spread, b.n, delta, 100*d.Bound, word)
		}
	}
	return regressed, nil
}
