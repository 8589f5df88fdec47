// Command bench is the repository's benchmark: one process opens a
// qpipe.DB, serves it with an in-process qpipe.Server on a loopback port
// and drives it through qpipe/client connections, the path a remote
// application takes. Four workloads, each on a fresh database, give the
// end-to-end metrics (tracing off) and, with -trace 1, the per-layer ones.
// README.md in this directory has the tables and the reasons.
//
//	go run ./bench                          all four workloads, everything
//	go run ./bench -workload olap_hot -seed 7 -seconds 10 -trace 0
//	go run ./bench -out bench/out/A.jsonl   append the records to a set of runs
//	go run ./bench -compare A.jsonl B.jsonl compare two sets of runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	workloadName := flag.String("workload", "", "run one workload (default: all four in sequence)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for data order, statement order and literals")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per workload; with tracing, the second half is the traced window")
	trace := flag.Int("trace", 1, "1: also run the traced window and the kernels and report per-layer metrics")
	flag.BoolVar(&cfg.noOSP, "no-osp", false, "send every statement with client.WithoutOSP (a sensitivity check, not a workload)")
	short := flag.Bool("short", false, "1 s windows and a single set-up, for smoke")
	out := flag.String("out", "", "append each run's record to this file as a line of JSON")
	compare := flag.Bool("compare", false, "compare two sets of runs: -compare A.jsonl B.jsonl")
	contract := flag.Bool("contract", false, "print BENCHMARK.json, generated from the tables in defs.go")
	flag.Parse()

	switch {
	case *contract:
		os.Stdout.Write(contractJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files of runs"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	cfg.traced, cfg.setups, cfg.outDir = *trace != 0, 3, "bench/out"
	if *short {
		cfg.seconds, cfg.setups = 1, 1
		if cfg.traced {
			cfg.seconds = 2
		}
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{*w}
	}
	ok := true
	var last *record
	for i := range selected {
		rec, err := runWorkload(context.Background(), &selected[i], cfg)
		if err != nil {
			fatal(err)
		}
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		ok = ok && rec.Correct
		last = rec
	}
	// The builder's contract: the last line of standard output is one JSON
	// object, holding the end-to-end metrics or, when tracing, the
	// per-layer ones (of the last workload, when all four ran).
	metrics := last.EndToEnd
	if cfg.traced {
		metrics = last.PerLayer
	}
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{ok, last.Attempted, last.Failed, map[string]plain{}}
	for name, v := range metrics {
		line.Metrics[name] = plain{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printRecord(rec *record) {
	e := rec.Env
	fmt.Printf("== %s  seed %d  windows %.1fs untraced + %.1fs traced  set-ups %d  no-osp %v\n",
		rec.Workload, e.Seed, e.UntracedS, e.TracedS, e.Setups, e.NoOSP)
	fmt.Printf("   git %s  %s  nproc %d  GOMAXPROCS %d  fs %s  sleep(1ms) %.3f ms  fsync %.3f ms\n",
		e.GitSHA, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Filesystem, e.Sleep1msActual, e.FsyncMS)
	fmt.Printf("   attempted %d  failed %d  correct %v  %s\n", rec.Attempted, rec.Failed, rec.Correct, rec.Failure)
	for _, d := range endToEnd {
		v := rec.EndToEnd[d.Name]
		fmt.Printf("   %-32s %14.4f %-6s n=%-7d slices %.4f\n", d.Name, v.Value, v.Unit, v.Samples, v.Slices)
	}
	if rec.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		if v := rec.PerLayer[d.Name]; v.Samples > 0 {
			fmt.Printf("   %-32s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.Samples)
		}
	}
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractJSON renders BENCHMARK.json from the tables.
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
