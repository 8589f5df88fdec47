// Package qpipe is a Go reproduction of "QPipe: A Simultaneously Pipelined
// Relational Query Engine" (Harizopoulos, Ailamaki, Shkapenyuk — SIGMOD
// 2005): an operator-centric relational execution engine in which every
// relational operator is an independent micro-engine (µEngine) serving
// query packets from a queue, and overlapping work between concurrent
// queries is detected and shared at run time via on-demand simultaneous
// pipelining (OSP).
//
// # Embedding
//
// The package is self-sufficient: Open assembles storage and engine, the
// fluent builder resolves column names against the catalog, and results
// stream through a range-over-func iterator.
//
//	db, _ := qpipe.Open(qpipe.Options{})
//	defer db.Close()
//
//	db.CreateTable("cities", qpipe.NewSchema(
//		qpipe.ColDef("id", qpipe.KindInt),
//		qpipe.ColDef("city", qpipe.KindString),
//		qpipe.ColDef("pop", qpipe.KindFloat)))
//	db.Load("cities", []qpipe.Row{qpipe.R(1, "Pittsburgh", 0.30), ...})
//
//	res, err := db.Scan("cities").
//		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
//		Project(qpipe.Col("city"), qpipe.Col("pop").Mul(qpipe.Float(1e6)).As("population")).
//		Run(ctx, qpipe.WithParallelism(4))
//	for row := range res.Rows() {
//		... // rows are immutable; see Result.Rows for the lease rules
//	}
//	if err := res.Err(); err != nil { ... }
//
// Builder mistakes — unknown tables or columns, type-mismatched predicates,
// duplicate output names, conflicting options — return typed errors (see
// errors.go) from Plan/Run rather than panicking inside the engine.
//
// Per-query execution knobs travel as functional options on Run:
// WithParallelism, WithoutOSP, WithBatchSize, WithResultCache,
// WithSharedScan. Engine-wide defaults live in Options/Config.
//
// # Engine layer
//
// Advanced embedders (and this module's tests) can drive the engine with
// precompiled plans directly: New assembles an Engine over a storage
// manager, Engine.Query submits a plan.Node. Two engines ship in this
// module: this package (QPipe, with OSP on or off — the paper's "QPipe
// w/OSP" and "Baseline" systems) and internal/volcano (a conventional
// one-query-many-operators iterator engine, standing in for the paper's
// commercial "DBMS X").
package qpipe

import (
	"context"
	"errors"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/ops"
	"qpipe/internal/plan"
	"qpipe/internal/qcache"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// Config re-exports the runtime configuration.
type Config = core.Config

// DefaultConfig returns the paper's "QPipe w/OSP" configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// BaselineConfig returns the paper's "Baseline" (OSP disabled).
func BaselineConfig() Config { return core.BaselineConfig() }

// Engine is a QPipe instance bound to a storage manager. It executes
// precompiled plans; everyday embedders use the DB facade and its builder
// instead.
type Engine struct {
	rt    *core.Runtime
	cache *qcache.Cache
}

// New assembles a QPipe engine over the storage manager with the standard
// operator set.
func New(mgr *sm.Manager, cfg Config) *Engine {
	return &Engine{rt: core.NewRuntime(mgr, cfg, ops.All())}
}

// Runtime exposes the underlying runtime for advanced callers (the
// benchmark, tests).
func (e *Engine) Runtime() *core.Runtime { return e.rt }

// Stats snapshots runtime counters (shares per µEngine, deadlocks resolved,
// queries admitted).
func (e *Engine) Stats() core.RuntimeStats { return e.rt.Stats() }

// Close shuts the engine down, cancelling outstanding queries.
func (e *Engine) Close() { e.rt.Close() }

// Query submits a precompiled plan for execution. The returned Result
// streams output tuples; the caller must drain it (Next/All/Rows/Discard).
func (e *Engine) Query(ctx context.Context, p plan.Node) (*Result, error) {
	q, err := e.rt.Submit(ctx, p)
	if err != nil {
		return nil, err
	}
	return newStreamResult(q, p.Schema(), -1), nil
}

// QueryBatch submits several plans together — the way a multi-query
// optimizer would hand QPipe a batch (paper §2.4: "QPipe can efficiently
// evaluate plans produced by a multi-query optimizer, since it always
// pipelines shared intermediate results"). No static common-subexpression
// analysis is needed: common subtrees across the batch carry identical
// signatures, so OSP shares them at the µEngines, pipelining — not
// materializing — each shared intermediate result to all consumers.
//
// If any member fails to submit, the already-submitted members are
// cancelled AND drained to completion — their buffers and batch-array
// leases released back to the engine, not left to the garbage collector —
// and the typed *BatchError reports the failing index, the submit error and
// any teardown errors (errors.As / errors.Is see through it).
func (e *Engine) QueryBatch(ctx context.Context, plans []plan.Node) ([]*Result, error) {
	out := make([]*Result, 0, len(plans))
	for i, p := range plans {
		res, err := e.Query(ctx, p)
		if err != nil {
			return nil, teardownBatch(out, i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// teardownBatch cancels and drains already-submitted batch members after
// member idx failed to submit, returning the typed joined error.
func teardownBatch(out []*Result, idx int, submitErr error) *BatchError {
	be := &BatchError{Index: idx, Submit: submitErr}
	for _, r := range out {
		r.Cancel()
		// Drain to release buffered batches back to the pool and wait the
		// query out. The expected outcomes of cancelling one's own query —
		// context.Canceled and an abandoned result buffer — are not errors
		// of the teardown; anything else is.
		if _, derr := r.Discard(); derr != nil &&
			!errors.Is(derr, context.Canceled) && !errors.Is(derr, tbuf.ErrAbandoned) {
			be.Teardown = append(be.Teardown, derr)
		}
	}
	return be
}

// Explain renders a plan as an indented tree (re-exported from the plan
// package for API convenience).
func Explain(p plan.Node) string { return plan.Explain(p) }

// ---- Result cache (paper Figure 2, §2.3) -------------------------------------

// EnableResultCache turns on the query-result cache in front of the engine:
// the first sharing stage of the paper's Figure 2 ("a cache of recently
// completed queries; on a match, the query returns the stored results and
// avoids execution altogether"). capacityTuples bounds the cache's total
// size; results larger than maxEntryTuples are never admitted. Only
// QueryCached and Run(... WithResultCache()) consult the cache.
func (e *Engine) EnableResultCache(capacityTuples, maxEntryTuples int64) {
	e.cache = qcache.New(capacityTuples, maxEntryTuples)
}

// CacheStats snapshots the result-cache counters (zero value when the
// cache is disabled).
func (e *Engine) CacheStats() qcache.Stats {
	if e.cache == nil {
		return qcache.Stats{}
	}
	return e.cache.Stats()
}

// QueryCached executes a plan through the result cache: a signature-exact
// hit returns the stored rows without touching the execution engine;
// misses execute normally (still benefiting from OSP against concurrent
// queries) and admit their result on completion. Update plans execute and
// invalidate cached results over their target table. The hit flag reports
// whether the cache served the result.
func (e *Engine) QueryCached(ctx context.Context, p plan.Node) (rows []tuple.Tuple, hit bool, err error) {
	return e.queryCached(ctx, p, core.QueryOptions{})
}

// queryCached is the cache-fronted execution path shared by QueryCached and
// the DB facade's WithResultCache option.
func (e *Engine) queryCached(ctx context.Context, p plan.Node, opts core.QueryOptions) (rows []tuple.Tuple, hit bool, err error) {
	exec := func() ([]tuple.Tuple, error) {
		q, err := e.rt.SubmitOpts(ctx, p, opts)
		if err != nil {
			return nil, err
		}
		return newStreamResult(q, p.Schema(), -1).All()
	}
	if e.cache == nil {
		rows, err = exec()
		return rows, false, err
	}
	if table, isUpdate := qcache.IsUpdate(p); isUpdate {
		rows, err = exec()
		if err == nil {
			e.cache.InvalidateTable(table)
		}
		return rows, false, err
	}
	sig := p.Signature()
	if cached, ok := e.cache.GetCloned(sig); ok {
		return cached, true, nil
	}
	start := time.Now()
	rows, err = exec()
	if err != nil {
		return rows, false, err
	}
	e.cache.Put(sig, qcache.TablesOf(p), rows, time.Since(start))
	return rows, false, nil
}
