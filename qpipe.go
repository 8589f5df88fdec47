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
//		... // rows are immutable; see Result.Next
//	}
//	if err := res.Err(); err != nil { ... }
//
// Builder mistakes — unknown tables or columns, type-mismatched predicates,
// duplicate output names, conflicting options — return typed errors (see
// errors.go) from Plan/Run rather than panicking inside the engine.
//
// Per-query execution knobs travel as functional options on Run:
// WithParallelism, WithoutOSP, WithBatchSize, WithSharedScan, WithTimeout,
// WithDeadline. Engine-wide defaults live in Options.
//
// # The systems compared
//
// DB is the only way to run anything. Two engines ship in this module: this
// package (QPipe, with OSP on or off — the paper's "QPipe w/OSP" and
// "Baseline" systems are Options{} and Options{DisableOSP: true}) and
// internal/volcano (a conventional one-query-many-operators iterator engine,
// standing in for the paper's commercial "DBMS X").
package qpipe

import "qpipe/internal/core"

// Engine is a view of a DB's runtime for the benchmark, which reads the
// runtime's counters and storage manager through it. It goes when the
// benchmark is rebuilt on DB alone.
type Engine struct{ rt *core.Runtime }

// Runtime exposes the underlying runtime.
func (e *Engine) Runtime() *core.Runtime { return e.rt }
