package main

import "time"

// The tables of the benchmark: statement classes, workloads and metrics.
// BENCHMARK.json is generated from them (-contract) and a test keeps the
// two equal, so a name exists in exactly one place.

// Statement classes. A class is one kind of operation a connection issues;
// every timing is kept per class because a pooled median jumps between
// classes when the mix shifts, and a per-class median does not.
const (
	scanAgg = iota
	groupBy
	joinGroupBy
	topN
	pointText
	pointPrepared
	pointIndexed
	streamAll
	txCommit
	readHot
	readOther
	numClasses
)

var classNames = [numClasses]string{
	"scan_agg", "groupby", "join_groupby", "topn",
	"point_text", "point_prepared", "point_indexed", "stream_all",
	"tx_commit", "read_hot", "read_other",
}

// Fixed statement texts: the tpchmix Q1, Q2, Q3 and Q5. Q5 carries oid as a
// second sort key, because amounts repeat and a top-10 over ties has no
// single right answer to check a reply against.
const (
	sqlScanAgg     = `SELECT sum(amount) AS revenue, count(*) AS n FROM orders WHERE amount < 500`
	sqlGroupBy     = `SELECT region, count(*) AS n, avg(amount) AS avg_amount FROM orders WHERE priority = 2 GROUP BY region`
	sqlJoinGroupBy = `SELECT segment, sum(amount) AS revenue FROM customers c JOIN orders o ON c.cid = o.cust WHERE segment = 1 GROUP BY segment`
	sqlTopN        = `SELECT oid, amount FROM orders WHERE amount > 900 ORDER BY amount DESC, oid DESC LIMIT 10`
	sqlStreamAll   = `SELECT * FROM events`
	sqlReadHot     = `SELECT sum(bal) AS total, count(*) AS n FROM accounts`
	sqlPointText   = `SELECT bal FROM accounts WHERE aid = %d`
	sqlPointIndex  = `SELECT amount FROM orders WHERE oid = %d`
	sqlTxCommit    = `BEGIN; UPDATE accounts SET bal = bal + 1 WHERE aid = %d; INSERT INTO events VALUES (%d, %d, 1.0, '%s'); COMMIT`
	sqlTxBody      = `UPDATE accounts SET bal = bal + 1 WHERE aid = %d; INSERT INTO events VALUES (%d, %d, 1.0, '%s')`
)

// fixedSQL is the text of the classes that send the same statement every
// time; the others draw a literal (conn.draw).
var fixedSQL = [numClasses]string{
	scanAgg: sqlScanAgg, groupBy: sqlGroupBy, joinGroupBy: sqlJoinGroupBy, topN: sqlTopN,
	streamAll: sqlStreamAll, readHot: sqlReadHot, readOther: sqlScanAgg,
}

const (
	runSeconds    = 20 // what the builder's driver passes as -seconds
	numAccounts   = 2000
	preparedPool  = 64  // distinct point_prepared statements per connection
	checkpointGap = 500 // acknowledged commits between checkpoints
	redoLength    = 250 // commits past the last checkpoint in the crash image
	spindles      = 4   // disk.Config default; the simulated array's width
)

// workload describes one set-up and its traffic. Sizes are chosen against
// the component they are meant to load, see README.md.
type workload struct {
	name string
	why  string

	orders      int // customers = orders/15
	events      int // preloaded events rows
	accounts    bool
	indexOrders bool
	poolPages   int
	diskLatency time.Duration // per block; 0 = no simulated device time
	parallelism int           // SET parallelism on every connection
	durable     bool          // Options.Dir on the repo's filesystem
	conns       [][]int       // classes each connection draws from
}

var olapClasses = []int{scanAgg, groupBy, joinGroupBy, topN}

var workloads = []workload{
	{
		name:   "olap_hot",
		why:    "one client, table resident, no device time: engine CPU (page decode, tuple, ops, tbuf, dispatch) does all the work",
		orders: 100000, poolPages: 2048, parallelism: 2,
		conns: [][]int{olapClasses},
	},
	{
		name:   "olap_shared_io",
		why:    "two clients, table 5.6x the pool, 1 ms sleeping disk: device-bound, so OSP scan sharing and the buffer pool decide it",
		orders: 30000, poolPages: 32, diskLatency: time.Millisecond, parallelism: 4,
		conns: [][]int{olapClasses, olapClasses},
	},
	{
		name:   "serve_mixed",
		why:    "point lookups (text, prepared, would-be indexed) and a 20k-row stream: parse, plan, admission, server, wire and client dominate",
		orders: 100000, events: 20000, accounts: true, indexOrders: true,
		poolPages: 2048, parallelism: 2,
		conns: [][]int{{pointText, pointPrepared, pointIndexed, streamAll}},
	},
	{
		name:   "tx_beside_reads",
		why:    "a durable committing writer beside a reader on the same heap/buffer/lock code: WAL, fsync, checkpoints and S/X lock stalls",
		orders: 100000, accounts: true, poolPages: 2048, parallelism: 2, durable: true,
		conns: [][]int{{txCommit}, {readHot, readOther}},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics: what a client of the server sees, measured with
// tracing off. The builder's contract wants each of them to be a non-zero
// number on every workload, so the quantities that exist on one workload
// only (commits, blocks read, write and space amplification, recovery) are
// in the per-layer list under the names ISSUE.md gave them, and so are the
// two that did not repeat within a quarter on the reference box (the tail
// latency and CPU per operation; README.md has the spreads). The bounds
// are the widest the contract allows: the box's own speed wanders by more
// than a tenth between runs of the same binary.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is filled by init: the regular families are generated.
var perLayer []metricDef

// units maps every declared metric to its unit.
var units = map[string]string{}

func init() {
	add := func(name, unit, better string) {
		perLayer = append(perLayer, metricDef{Name: name, Unit: unit, Better: better})
	}
	// client: the terms of op_p50_ms, and the tail.
	for _, c := range classNames {
		add("client.p50_ms."+c, "ms", "lower")
	}
	for _, c := range classNames {
		add("client.p90_ms."+c, "ms", "lower")
	}
	// Whole-path quantities that are not end-to-end metrics under the
	// contract (zero or undefined on some workload, or too noisy to bound).
	add("op_p90_ms", "ms", "lower")
	add("cpu_ms_per_op", "ms", "lower")
	add("queries_per_s", "1/s", "higher")
	add("commits_per_s", "1/s", "higher")
	add("failed_share", "ratio", "lower")
	add("blocks_read_per_query", "blocks", "lower")
	add("write_amp", "ratio", "lower")
	add("space_amp", "ratio", "lower")
	add("recovery_s", "s", "lower")
	// The ladder, from the traced window.
	add("wire.query_ms", "ms", "lower")
	add("wire.first_row_ms", "ms", "lower")
	add("sql.parse_us", "us", "lower")
	add("planner.prepare_us", "us", "lower")
	add("core.submit_us", "us", "lower")
	add("engine.first_batch_ms", "ms", "lower")
	add("engine.drain_ms", "ms", "lower")
	add("server.overhead_ms", "ms", "lower")
	add("sm.tx_exec_us", "us", "lower")
	add("sm.tx_commit_us", "us", "lower")
	add("trace.overhead_pct", "%", "lower")
	// Counters, as deltas of the layers' Stats() over the untraced window.
	add("core.shares_per_query", "count", "higher")
	add("core.scan_share_fraction", "ratio", "higher")
	add("core.shed", "count", "lower")
	add("core.deadline_timeouts", "count", "lower")
	add("core.deadlocks_seen", "count", "lower")
	add("core.materialized", "count", "lower")
	add("buffer.hit_rate", "ratio", "higher")
	add("buffer.evictions_per_query", "count", "lower")
	add("buffer.pins_per_row_returned", "count", "lower")
	add("disk.sim_busy_ms_per_query", "ms", "lower")
	add("disk.sim_utilisation", "ratio", "lower")
	add("disk.seq_read_share", "ratio", "higher")
	add("disk.writes_per_commit", "count", "lower")
	add("disk.device_bytes_per_commit", "bytes", "lower")
	add("wal.bytes_per_commit", "bytes", "lower")
	add("sm.checkpoint_ms", "ms", "lower")
	add("sm.checkpoint_device_mb", "MB", "lower")
	add("lock.read_hot_stall_ms", "ms", "lower")
	add("server.rows_per_s", "1/s", "higher")
	add("server.batches_per_query", "count", "lower")
	add("server.errors_sent", "count", "lower")
	add("proc.alloc_kb_per_op", "kB", "lower")
	add("proc.allocs_per_op", "count", "lower")
	add("proc.gc_cycles_per_s", "1/s", "lower")
	add("proc.gc_pause_total_ms", "ms", "lower")
	// Calibrations of the box, and kernels on generated rows and pages.
	add("disk.sleep_1ms_actual_ms", "ms", "lower")
	add("disk.fsync_ms", "ms", "lower")
	for _, k := range kernels {
		add(k.name, k.unit, "lower")
		if k.extra != "" {
			add(k.extra, "count", "lower")
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
}
