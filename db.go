// DB: the embeddable facade. Open assembles the whole stack — simulated
// disk, buffer pool, lock manager, catalog and the QPipe engine — behind one
// handle, so a host program needs exactly one import ("qpipe") to create
// tables, load data, build queries by column name and stream results.
package qpipe

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/ops"
	"qpipe/internal/plan"
	"qpipe/internal/stats"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// Stats aggregates engine and sharing counters (see core.RuntimeStats).
type Stats = core.RuntimeStats

// HandOver indexes Stats.HandOvers: how a hash join's, an aggregate's or a
// Top-N's hand-over to the scan below it ended (its String is the reason).
type HandOver = core.HandOver

// ShareDecision indexes Stats.Shares and a Result's Stats().Shares: how an OSP
// attach decision ended, a share or the reason for the miss (its String).
type ShareDecision = core.ShareDecision

// DiskStats snapshots the simulated disk's I/O counters.
type DiskStats = disk.Stats

// Options configures a DB. The zero value is a sensible default: OSP on,
// a 1024-page buffer pool, GOMAXPROCS scan parallelism.
type Options struct {
	// PoolPages is the buffer-pool capacity in pages (default 1024).
	PoolPages int
	// BlockSize is the simulated disk's block size in bytes (default 8192).
	BlockSize int
	// DisableOSP turns off on-demand simultaneous pipelining engine-wide
	// (the paper's "Baseline" system). Individual queries can opt out with
	// WithoutOSP instead.
	DisableOSP bool
	// ScanParallelism is the default intra-operator fan-out (0 =
	// GOMAXPROCS). Overridable per query with WithParallelism.
	ScanParallelism int
	// BatchSize is the default tuples-per-batch target (0 = 64).
	// Overridable per query with WithBatchSize.
	BatchSize int
	// BufferCapacity bounds intermediate buffers, in batches (0 = 8).
	BufferCapacity int
	// ReplayWindow is the produced-tuple window retained for late OSP
	// satellite attachment (0 = the default, 1024; 1 = the strictest, a
	// satellite attaches until the host's second tuple; negative = unbounded).
	ReplayWindow int
	// DisableOptimizer turns off every plan pass — normalization, predicate
	// pushdown, join ordering, column pruning, access paths: SQL and builder
	// queries alike run exactly as written, joins in FROM order. An escape
	// hatch for debugging and for measuring what the optimizer buys
	// (TestPlanShareMixSharesAtTheRoot is the A/B).
	DisableOptimizer bool
	// MaxConcurrentQueries caps how many queries execute at once (admission
	// control). Excess submissions park in a bounded FIFO wait queue; once
	// that is full too, Run sheds the query with a typed *OverloadedError.
	// 0 (the default) disables governance.
	MaxConcurrentQueries int
	// AdmissionQueue bounds the admission wait queue, in queries (0 =
	// 2×MaxConcurrentQueries; negative = no queue, shed immediately at the
	// concurrency limit). Only meaningful with MaxConcurrentQueries > 0.
	AdmissionQueue int
	// DrainTimeout bounds how long Close waits for in-flight queries to
	// finish before cancelling the stragglers (0 = 5s; negative = cancel
	// immediately).
	DrainTimeout time.Duration
	// Dir, when non-empty, makes the database durable: committed state is
	// mirrored to real fsynced files in that directory, and Open recovers
	// whatever a previous process (even one killed mid-commit) durably
	// committed there — replaying the write-ahead log past the last
	// checkpoint. Empty (the default) keeps everything in memory; the WAL
	// still runs (transactions work identically) but nothing survives the
	// process. Statistics are not persisted: run ANALYZE after reopening if
	// the optimizer should see fresh cardinalities.
	Dir string
	// WALSegmentBlocks sizes write-ahead-log segments, in disk blocks
	// (0 = 256). Smaller segments checkpoint-truncate sooner; tests use
	// small values to exercise rotation.
	WALSegmentBlocks int
}

// DB is an embedded QPipe database: storage manager plus engine.
type DB struct {
	mgr     *sm.Manager
	rt      *core.Runtime
	stats   *stats.Registry
	noOpt   bool
	durable bool
}

// Open creates a database and starts its engine: a fresh in-memory one by
// default, or — with Options.Dir set — a durable one recovered from that
// directory's files and write-ahead log.
func Open(opts Options) (*DB, error) {
	poolPages := opts.PoolPages
	if poolPages <= 0 {
		poolPages = 1024
	}
	cfg := core.DefaultConfig()
	if opts.DisableOSP {
		cfg = core.BaselineConfig()
	}
	if opts.ScanParallelism != 0 {
		cfg.ScanParallelism = opts.ScanParallelism
	}
	if opts.BatchSize != 0 {
		cfg.BatchSize = opts.BatchSize
	}
	if opts.BufferCapacity != 0 {
		cfg.BufferCapacity = opts.BufferCapacity
	}
	if opts.ReplayWindow != 0 {
		cfg.ReplayWindow = opts.ReplayWindow
	}
	if opts.MaxConcurrentQueries != 0 {
		cfg.MaxConcurrentQueries = opts.MaxConcurrentQueries
	}
	if opts.AdmissionQueue != 0 {
		cfg.AdmissionQueue = opts.AdmissionQueue
	}
	if opts.DrainTimeout != 0 {
		cfg.DrainTimeout = opts.DrainTimeout
	}
	var mgr *sm.Manager
	if opts.Dir != "" {
		d, err := disk.Open(disk.Config{BlockSize: opts.BlockSize, BackingDir: opts.Dir})
		if err != nil {
			return nil, err
		}
		mgr = sm.NewSharedDisk(d, poolPages)
	} else {
		mgr = sm.New(sm.Config{Disk: disk.Config{BlockSize: opts.BlockSize}, PoolPages: poolPages})
	}
	l, err := wal.Open(mgr.Disk, wal.Options{SegmentBlocks: opts.WALSegmentBlocks})
	if err != nil {
		return nil, err
	}
	mgr.EnableWAL(l)
	if opts.Dir != "" {
		if err := mgr.Recover(); err != nil {
			_ = mgr.Disk.Close() // the failed open must not keep the log's file handle
			return nil, fmt.Errorf("qpipe: recovering %q: %w", opts.Dir, err)
		}
	}
	db := newDB(mgr, cfg)
	db.noOpt, db.durable = opts.DisableOptimizer, opts.Dir != ""
	return db, nil
}

// newDB starts the engine over a storage manager. Tables the manager already
// holds (recovered ones) get empty stats — persisting them is out of scope;
// ANALYZE refreshes the optimizer's view.
func newDB(mgr *sm.Manager, cfg core.Config) *DB {
	reg := stats.NewRegistry()
	for _, name := range mgr.Tables() {
		if t, err := mgr.Table(name); err == nil {
			reg.Create(name, t.Schema.Len())
		}
	}
	return &DB{mgr: mgr, rt: core.NewRuntime(mgr, cfg, ops.All()), stats: reg}
}

// Close shuts the engine down gracefully: new queries are rejected with
// ErrClosed immediately, in-flight ones get up to Options.DrainTimeout to
// finish, and stragglers are then cancelled. A durable database is
// checkpointed on the way out (best-effort — an unclean exit recovers from
// the WAL anyway).
func (db *DB) Close() {
	db.rt.Close()
	if db.durable {
		_ = db.mgr.Checkpoint()
		// Release the log's backing-file handle; everything it wrote was
		// fsynced by the flush that wrote it.
		_ = db.mgr.Disk.Close()
	}
}

// Checkpoint flushes all committed state to the durable store and truncates
// the write-ahead log: recovery after a crash replays only what committed
// since. It waits for in-flight commits to complete. Only meaningful on a
// durable database (Options.Dir), but harmless on an in-memory one.
func (db *DB) Checkpoint() error { return db.mgr.Checkpoint() }

// Engine exposes the runtime view the benchmark reads. Embedders never need
// it.
func (db *DB) Engine() *Engine { return &Engine{rt: db.rt} }

// ---- Catalog / DDL -----------------------------------------------------------

// CreateTable registers a new table. Column names must be unique.
func (db *DB) CreateTable(name string, schema *Schema) error {
	seen := make(map[string]bool, schema.Len())
	for _, c := range schema.Cols {
		if seen[c.Name] {
			return &DuplicateColumnError{Column: c.Name}
		}
		seen[c.Name] = true
	}
	_, err := db.mgr.CreateTable(name, schema)
	if err == nil {
		db.stats.Create(name, schema.Len())
	}
	return err
}

// CreateIndex builds a B+tree index on a column: clustered (full rows in
// key order — one per table) or unclustered (key → row id), from the table's
// current contents; rows loaded or inserted afterwards are entered into it
// as they commit. With statistics (Load and Insert keep them, ANALYZE
// rebuilds them) the planner reads through the index where that touches
// fewer pages than the heap; ScanIndex forces it.
func (db *DB) CreateIndex(table, col string, clustered bool) error {
	t, err := db.mgr.Table(table)
	if err != nil {
		return &UnknownTableError{Table: table}
	}
	if t.Schema.ColIndex(col) < 0 {
		return &UnknownColumnError{Column: col, Schema: t.Schema.String()}
	}
	if clustered {
		return db.mgr.BuildClustered(table, col)
	}
	return db.mgr.BuildUnclustered(table, col)
}

// checkRows validates rows against a table schema (arity and kinds).
func checkRows(table string, s *Schema, rows []Row) error {
	for _, r := range rows {
		if len(r) != s.Len() {
			return fmt.Errorf("qpipe: row arity %d does not match %s's %d columns", len(r), table, s.Len())
		}
		for i, v := range r {
			if v.K != s.Cols[i].Kind {
				return &TypeMismatchError{
					Expr: fmt.Sprintf("%s.%s", table, s.Cols[i].Name),
					Left: s.Cols[i].Kind, Right: v.K}
			}
		}
	}
	return nil
}

// Load bulk-appends rows into a table as one committed transaction. It
// takes the table's exclusive lock, so it is safe on a live database —
// concurrent readers see either none or all of the rows — but Insert is
// the better fit for small concurrent writes. Rows are validated against
// the schema.
func (db *DB) Load(table string, rows []Row) error {
	t, err := db.mgr.Table(table)
	if err != nil {
		return &UnknownTableError{Table: table}
	}
	if err := checkRows(table, t.Schema, rows); err != nil {
		return err
	}
	if err := db.mgr.Load(table, rows); err != nil {
		return err
	}
	db.stats.Add(table, rows)
	return nil
}

// Insert appends rows through the update µEngine: it serializes against
// concurrent readers via the lock manager and maintains the table's indexes.
func (db *DB) Insert(ctx context.Context, table string, rows ...Row) error {
	return db.insert(ctx, table, rows, queryOpts{})
}

func (db *DB) insert(ctx context.Context, table string, rows []Row, o queryOpts) error {
	t, err := db.mgr.Table(table)
	if err != nil {
		return &UnknownTableError{Table: table}
	}
	if err := checkRows(table, t.Schema, rows); err != nil {
		return err
	}
	res, err := db.run(ctx, plan.NewUpdate(table, rows), -1, o)
	if err != nil {
		return err
	}
	if _, err := res.Discard(); err != nil {
		return err
	}
	db.stats.Add(table, rows)
	return nil
}

// Schema returns a table's schema.
func (db *DB) Schema(table string) (*Schema, error) {
	t, err := db.mgr.Table(table)
	if err != nil {
		return nil, &UnknownTableError{Table: table}
	}
	return t.Schema, nil
}

// Tables returns the catalog's table names, sorted.
func (db *DB) Tables() []string { return db.mgr.Tables() }

// TablePages returns the number of heap pages a table occupies.
func (db *DB) TablePages(table string) (int64, error) {
	t, err := db.mgr.Table(table)
	if err != nil {
		return 0, &UnknownTableError{Table: table}
	}
	return t.Heap.NumPages(), nil
}

// ---- Execution ---------------------------------------------------------------

// run submits a compiled plan with resolved options: every query, mutation
// and batch member the DB executes is submitted here.
func (db *DB) run(ctx context.Context, p plan.Node, limit int64, o queryOpts) (*Result, error) {
	q, err := db.rt.SubmitOpts(ctx, p, o.core)
	if err != nil {
		return nil, err
	}
	return newStreamResult(q, p.Schema(), limit), nil
}

// RunBatch submits several built queries together — the multi-query-
// optimizer entry point (§2.4: "QPipe can efficiently evaluate plans
// produced by a multi-query optimizer, since it always pipelines shared
// intermediate results"). No static common-subexpression analysis is
// needed: common subtrees across the batch carry identical signatures, so
// OSP shares them at the µEngines, pipelining — not materializing — each
// shared intermediate result to all consumers. The options apply to every
// member. If any member fails to submit, the already-submitted ones are
// cancelled and waited out, and the typed *BatchError reports the failure.
func (db *DB) RunBatch(ctx context.Context, queries []*Query, opts ...QueryOption) ([]*Result, error) {
	o, err := resolveOpts(opts)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(queries))
	for i, q := range queries {
		err := q.err
		if err == nil && q.db != db {
			// A query resolved against another DB's catalog carries that
			// catalog's positional indexes — running it here would read the
			// wrong columns silently.
			err = fmt.Errorf("qpipe: batch member %d was built on a different DB", i)
		}
		var res *Result
		if err == nil {
			var p plan.Node
			var limit int64
			p, limit, err = q.compile()
			if err == nil {
				res, err = db.run(ctx, p, limit, o)
			}
		}
		if err != nil {
			return nil, teardownBatch(out, i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// teardownBatch cancels the batch members submitted before member idx failed
// to submit and waits each one out, returning the typed joined error. The
// wait returns once the member's root packet has finished.
func teardownBatch(out []*Result, idx int, submitErr error) *BatchError {
	be := &BatchError{Index: idx, Submit: submitErr}
	for _, r := range out {
		r.Cancel()
		// Cancelling one's own query ends it with context.Canceled (Wait
		// reports a torn-down buffer as that); anything else is an error of
		// the teardown.
		if err := r.q.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			be.Teardown = append(be.Teardown, err)
		}
	}
	return be
}

// ---- Instrumentation ---------------------------------------------------------

// Stats snapshots the engine's runtime counters (queries admitted, OSP
// attach decisions by reason and shares per µEngine, deadlocks resolved).
func (db *DB) Stats() Stats { return db.rt.Stats() }

// TotalShares sums the OSP shares of every µEngine (Stats().SharesByOp).
func (db *DB) TotalShares() int64 { return db.rt.TotalShares() }

// SetDiskLatency configures the simulated disk's per-block latencies
// (sequential read, random read, write). Zero disables the simulation;
// non-zero values make I/O-bound sharing effects visible in wall time.
func (db *DB) SetDiskLatency(seqRead, randRead, write time.Duration) {
	db.mgr.Disk.SetLatency(seqRead, randRead, write)
}

// DiskStats snapshots the simulated disk's I/O counters.
func (db *DB) DiskStats() DiskStats { return db.mgr.Disk.Stats() }

// ResetDiskStats zeroes the disk counters (before a measured run).
func (db *DB) ResetDiskStats() { db.mgr.Disk.ResetStats() }

// DropCaches empties the buffer pool (writing back dirty pages), so the
// next run starts cold — the knob experiments use between measured runs.
func (db *DB) DropCaches() error { return db.mgr.Pool.Invalidate() }

// compile-time check: public Row/Value stay aliases of the storage model.
var _ Row = tuple.Tuple{}
