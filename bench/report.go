package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// value is one reported metric.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"` // operations (or repetitions) behind it
	Slices  []float64 `json:"slices,omitempty"`  // the same metric over each part of the window
}

type environment struct {
	GitSHA         string  `json:"git_sha"`
	GoVersion      string  `json:"go_version"`
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Seed           int64   `json:"seed"`
	UntracedS      float64 `json:"untraced_window_s"`
	TracedS        float64 `json:"traced_window_s"`
	Setups         int     `json:"setups"`
	NoOSP          bool    `json:"no_osp"`
	Filesystem     string  `json:"filesystem"`
	Sleep1msActual float64 `json:"disk.sleep_1ms_actual_ms"`
	FsyncMS        float64 `json:"disk.fsync_ms"`
}

// record is one run of one workload. Claim stays null: the benchmark
// measures, a change that claims a gain does so in its own issue.
type record struct {
	Workload  string           `json:"workload"`
	Env       environment      `json:"environment"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failure   string           `json:"failure,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Claim     *string          `json:"claim"`
}

// runWorkload sets the workload up (several times, for setup_s), measures
// the untraced window and, when tracing, the traced one, the writer-idle
// phase and the kernels, and checks durability where the workload writes.
func runWorkload(ctx context.Context, w *workload, cfg config) (*record, error) {
	if n := runtime.NumCPU(); len(w.conns) > n {
		return nil, fmt.Errorf("%s needs %d connections and this box has %d CPUs: client and server share them, so the numbers would measure the scheduler", w.name, len(w.conns), n)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	untraced := time.Duration(cfg.seconds * float64(time.Second))
	var tracedLen time.Duration
	if cfg.traced {
		untraced /= 2
		tracedLen = untraced
	}
	rec := &record{Workload: w.name, EndToEnd: map[string]value{}}
	rec.Env = environment{GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, UntracedS: untraced.Seconds(),
		TracedS: tracedLen.Seconds(), Setups: cfg.setups, NoOSP: cfg.noOSP,
		Filesystem: filesystemOf(cfg.outDir), Sleep1msActual: sleep1msActual()}
	var err error
	if rec.Env.FsyncMS, err = fsyncMS(cfg.outDir); err != nil {
		return nil, err
	}

	data := generate(w, cfg.seed)
	var in *instance
	setupS := make([]float64, cfg.setups)
	for i := range setupS {
		if in != nil {
			in.shutDown()
			in = nil
			debug.FreeOSMemory()
		}
		var took time.Duration
		if in, took, err = setUp(ctx, w, data, cfg, i == cfg.setups-1); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS[i] = took.Seconds()
	}
	defer in.shutDown()
	rec.EndToEnd["setup_s"] = value{Value: median(setupS), Unit: "s", Samples: len(setupS), Slices: setupS}

	// A failed operation stops its connection, so err is the first failure;
	// the run still reports what it measured, marked incorrect.
	main, err := in.measure(ctx, untraced, slices, false)
	in.endToEnd(rec, main)
	if cfg.traced {
		rec.PerLayer = map[string]value{}
	}
	if cfg.traced && err == nil {
		var traced window
		traced, err = in.measure(ctx, tracedLen, 1, true)
		var calm []float64
		if w.durable && err == nil {
			calm = in.readHotAlone(ctx, min(2*time.Second, tracedLen/2))
		}
		in.perLayer(rec, main, traced, calm)
		if werr := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, traced.spans); err == nil {
			err = werr
		}
	}
	if w.durable && err == nil {
		var d durability
		d, err = in.crashAndRecover(ctx, encodedBytes(data.orders)+encodedBytes(data.customers)+encodedBytes(data.accounts))
		rec.layer("recovery_s", d.recoveryS, 1)
		rec.layer("space_amp", d.spaceAmp, 1)
		rec.layer("sm.checkpoint_ms", median(in.ckptMS), len(in.ckptMS))
		rec.layer("sm.checkpoint_device_mb", median(in.ckptMB), len(in.ckptMB))
	}
	if cfg.traced {
		if kerr := runKernels(ctx, rec, data, cfg.outDir); err == nil {
			err = kerr
		}
		rec.layer("disk.sleep_1ms_actual_ms", rec.Env.Sleep1msActual, calibrationRuns)
		rec.layer("disk.fsync_ms", rec.Env.FsyncMS, calibrationRuns)
	}
	for _, c := range in.conns {
		rec.Attempted += c.attempted
		rec.Failed += c.failed
	}
	rec.layer("failed_share", ratio(float64(rec.Failed), float64(rec.Attempted)), int(rec.Attempted))
	if cfg.traced {
		for _, d := range perLayer { // a metric this workload has no operations for reads 0
			if _, ok := rec.PerLayer[d.Name]; !ok {
				rec.PerLayer[d.Name] = value{Unit: d.Unit}
			}
		}
	}
	rec.Correct = err == nil && rec.Failed == 0
	if err != nil {
		rec.Failure = err.Error()
	}
	return rec, nil
}

// classLatencies returns, per class, the sorted latencies in ms of the
// samples that ended in (from, to].
func classLatencies(samples []sample, from, to time.Duration) [numClasses][]float64 {
	var out [numClasses][]float64
	for _, s := range samples {
		if s.end > from && s.end <= to {
			out[s.class] = append(out[s.class], ms(s.dur))
		}
	}
	for _, xs := range out {
		sort.Float64s(xs)
	}
	return out
}

// acrossClasses is the geometric mean over the classes that have samples
// of the class's q-quantile.
func acrossClasses(lat [numClasses][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range lat {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return geomean(qs)
}

func count(lat [numClasses][]float64) (n int) {
	for _, xs := range lat {
		n += len(xs)
	}
	return n
}

// endToEnd derives the end-to-end metrics of the untraced window, and the
// same over each slice so a cold first slice or a noisy neighbour shows.
func (in *instance) endToEnd(rec *record, w window) {
	over := func(from, to time.Duration) (opsPerS, p50 float64, n int) {
		lat := classLatencies(w.samples, from, to)
		n = count(lat)
		return ratio(float64(n), (to - from).Seconds()), acrossClasses(lat, 0.5), n
	}
	last := len(w.snaps) - 1
	var rate, p50, rss []float64
	for i := 0; i < last; i++ {
		r, p, _ := over(w.length*time.Duration(i)/time.Duration(last), w.length*time.Duration(i+1)/time.Duration(last))
		rate, p50, rss = append(rate, r), append(p50, p), append(rss, w.snaps[i+1].rssMB)
	}
	r, p, n := over(0, w.length)
	rec.EndToEnd["ops_per_s"] = value{r, "1/s", n, rate}
	rec.EndToEnd["op_p50_ms"] = value{p, "ms", n, p50}
	rec.EndToEnd["peak_rss_mb"] = value{w.snaps[last].rssMB, "MB", 1, rss}
}

// perLayer derives the per-layer metrics: client timings and counter
// deltas from the untraced window, the ladder from the traced one.
func (in *instance) perLayer(rec *record, main, traced window, calm []float64) {
	put := rec.layer

	lat := classLatencies(main.samples, 0, main.length)
	var queries, commits int
	for c, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		put("client.p50_ms."+classNames[c], quantile(xs, 0.5), len(xs))
		put("client.p90_ms."+classNames[c], quantile(xs, 0.9), len(xs))
		if c == txCommit {
			commits = len(xs)
		} else {
			queries += len(xs)
		}
	}
	ops, secs := queries+commits, main.length.Seconds()
	put("op_p90_ms", acrossClasses(lat, 0.9), ops)
	put("queries_per_s", ratio(float64(queries), secs), queries)
	put("commits_per_s", ratio(float64(commits), secs), commits)

	d := main.snaps[len(main.snaps)-1].since(main.snaps[0])
	q, c, all := float64(queries), float64(commits), float64(ops)
	put("cpu_ms_per_op", ratio(d[cCPUms], all), ops)
	put("blocks_read_per_query", ratio(d[cDiskReads], q), queries)
	put("core.shares_per_query", ratio(d[cShares], q), queries)
	put("core.scan_share_fraction", ratio(d[cScanShares], d[cShares]), int(d[cShares]))
	put("core.shed", d[cShed], ops)
	put("core.deadline_timeouts", d[cTimeouts], ops)
	put("core.deadlocks_seen", d[cDeadlocks], ops)
	put("core.materialized", d[cMaterialized], ops)
	pins := d[cPoolHits] + d[cPoolMisses]
	put("buffer.hit_rate", ratio(d[cPoolHits], pins), int(pins))
	put("buffer.evictions_per_query", ratio(d[cPoolEvictions], q), queries)
	put("buffer.pins_per_row_returned", ratio(pins, d[cRowsSent]), int(d[cRowsSent]))
	put("disk.sim_busy_ms_per_query", ratio(d[cDiskBusyMS], q), queries)
	put("disk.sim_utilisation", ratio(d[cDiskBusyMS]/1e3, secs*spindles), queries)
	put("disk.seq_read_share", ratio(d[cDiskSeqReads], d[cDiskReads]), int(d[cDiskReads]))
	put("disk.writes_per_commit", ratio(d[cDiskWrites], c), commits)
	put("disk.device_bytes_per_commit", ratio(d[cDeviceBytes], c), commits)
	put("wal.bytes_per_commit", ratio(d[cWALBytes], c), commits)
	put("write_amp", ratio(d[cDeviceBytes], c*float64(eventRowBytes+accountRowBytes)), commits)
	put("server.rows_per_s", ratio(d[cRowsSent], secs), int(d[cRowsSent]))
	put("server.batches_per_query", ratio(d[cBatchesSent], q), queries)
	put("server.errors_sent", d[cErrorsSent], ops)
	put("proc.alloc_kb_per_op", ratio(d[cAllocBytes]/1024, all), ops)
	put("proc.allocs_per_op", ratio(d[cMallocs], all), ops)
	put("proc.gc_cycles_per_s", ratio(d[cGCs], secs), int(d[cGCs]))
	put("proc.gc_pause_total_ms", d[cGCPauseMS], int(d[cGCs]))

	// The ladder. Each stage is the geometric mean over classes of the
	// class median, like op_p50_ms, so the stages and the whole compare.
	n := len(traced.samples)
	staged := groupOps(traced.spans)
	for _, st := range []struct {
		metric, span string
		unit         float64
	}{
		{"wire.query_ms", "wire.query", 1e6}, {"wire.first_row_ms", "wire.first_row", 1e6},
		{"sql.parse_us", "sql.parse", 1e3}, {"core.submit_us", "core.submit", 1e3},
		{"engine.first_batch_ms", "engine.first_batch", 1e6}, {"engine.drain_ms", "engine.drain", 1e6},
		{"sm.tx_exec_us", "sm.tx_exec", 1e3}, {"sm.tx_commit_us", "sm.tx_commit", 1e3},
	} {
		if v := ladderStage(staged, st.span, st.unit); v > 0 {
			put(st.metric, v, n)
		}
	}
	put("planner.prepare_us", geomean(classMedians(staged, func(op map[string]time.Duration) (float64, bool) {
		d, ok := op["db.prepare"]
		return max(float64(d-op["sql.parse"]), 1) / 1e3, ok
	})), n)
	// What the served path adds to the embedded one: server, wire and
	// client together. A difference, so a plain mean over classes.
	put("server.overhead_ms", mean(classMedians(staged, func(op map[string]time.Duration) (float64, bool) {
		embedded := op["db.prepare"] + op["core.submit"] + op["engine.first_batch"] + op["engine.drain"] +
			op["db.begin"] + op["sm.tx_exec"] + op["sm.tx_commit"]
		return ms(op["wire.query"] - embedded), embedded > 0
	})), n)
	// The same wire operation, timed inside the traced window against the
	// untraced one: what tracing (and the staged twin beside it) costs.
	put("trace.overhead_pct", 100*(ratio(acrossClasses(classLatencies(traced.samples, 0, traced.length), 0.5), acrossClasses(lat, 0.5))-1), n)

	if hot := lat[readHot]; len(hot) > 0 && len(calm) > 0 {
		put("lock.read_hot_stall_ms", quantile(hot, 0.5)-median(calm), len(calm))
	}
}

// layer records a per-layer metric under its declared unit, when the run
// reports per-layer metrics at all; a name that is not in the table is a
// bug in the benchmark.
func (rec *record) layer(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if rec.PerLayer != nil {
		rec.PerLayer[name] = value{Value: v, Unit: unit, Samples: samples}
	}
}
