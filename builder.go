// Schema-aware fluent query builder: the public way to construct plans.
// Column references are by NAME, so a mistake is a typed error from Plan/Run,
// never a positional-index panic inside a µEngine. Each declaration forwards
// to the front end the SQL entry points share, qpipe/internal/lower.
//
//	res, err := db.Scan("cities").
//		Filter(qpipe.Col("pop").Gt(qpipe.Float(0.5))).
//		Project(qpipe.Col("city"), qpipe.Col("pop").Mul(qpipe.Float(1e6)).As("population")).
//		Run(ctx)
package qpipe

import (
	"context"

	"qpipe/internal/lower"
	"qpipe/internal/plan"
)

// Plan is a compiled physical plan — the engine's input format. Builders
// and the SQL front end produce plans; Query.Plan returns one for
// inspection. Embedders never construct plans directly.
type Plan = plan.Node

// Expr is a scalar expression over named columns, built from Col and the
// literal constructors and combined with arithmetic methods (Add, Sub, Mul,
// Div; As names it in a Project). Expressions resolve against the input
// schema when the builder step using them runs.
type Expr = lower.Expr

// Pred is a boolean predicate over named columns, built from an Expr's
// comparison methods (Eq, Ne, Lt, Le, Gt, Ge, In, Between) and And, Or, Not.
type Pred = lower.Pred

// Agg is one aggregate output column of a GroupBy or Aggregate step.
type Agg = lower.Agg

// Col references an input column by name.
func Col(name string) Expr { return lower.Col(name) }

// Int is an integer literal expression.
func Int(v int64) Expr { return lower.Int(v) }

// Float is a float literal expression.
func Float(v float64) Expr { return lower.Float(v) }

// String is a string literal expression.
func String(v string) Expr { return lower.String(v) }

// Date is a date literal expression (days since 1970-01-01).
func Date(days int64) Expr { return lower.Date(days) }

// Lit lifts a Value into a literal expression.
func Lit(v Value) Expr { return lower.Lit(v) }

// And is an n-ary conjunction.
func And(ps ...Pred) Pred { return lower.And(ps...) }

// Or is an n-ary disjunction.
func Or(ps ...Pred) Pred { return lower.Or(ps...) }

// Not negates a predicate.
func Not(p Pred) Pred { return lower.Not(p) }

// Count is COUNT(*).
func Count() Agg { return lower.Count() }

// Sum aggregates the sum of an expression.
func Sum(e Expr) Agg { return lower.Sum(e) }

// Avg aggregates the mean of an expression.
func Avg(e Expr) Agg { return lower.Avg(e) }

// Min aggregates the minimum of an expression.
func Min(e Expr) Agg { return lower.Min(e) }

// Max aggregates the maximum of an expression.
func Max(e Expr) Agg { return lower.Max(e) }

// Query is an immutable builder over a partially-constructed plan. Each
// method returns a new Query; the first resolution error sticks and is
// returned by Plan/Explain/Run. A Query is cheap to copy and reusable: two
// chains branching from one prefix share the already-built subtree, which
// OSP then deduplicates at run time.
type Query struct {
	db *DB
	q  lower.Query
}

// Scan starts a query reading every row of a table.
func (db *DB) Scan(table string) *Query { return &Query{db, lower.Scan(accessCatalog{db}, table)} }

// ScanIndex starts a query reading a table through the B+tree index on col,
// restricted to lo <= col <= hi (zero Values leave the bound open). The
// clustered index is used when col is the clustered key, an unclustered
// index otherwise; ordered delivery follows the index. A column without an
// index is a *NoIndexError.
func (db *DB) ScanIndex(table, col string, lo, hi Value) *Query {
	return &Query{db, lower.ScanIndex(accessCatalog{db}, table, col, lo, hi)}
}

// Filter keeps rows satisfying the predicate.
func (q *Query) Filter(p Pred) *Query { return &Query{q.db, q.q.Filter(p)} }

// Project computes the given expressions as the output columns. Output
// names come from As aliases (or the column's own name for plain
// references); duplicates are a DuplicateColumnError.
func (q *Query) Project(exprs ...Expr) *Query { return &Query{q.db, q.q.Project(exprs...)} }

// Select keeps only the named columns (in the given order) — sugar for a
// Project of plain column references.
func (q *Query) Select(cols ...string) *Query { return &Query{q.db, q.q.Select(cols...)} }

// Join hash-joins q (build side) with r (probe side) on leftCol = rightCol.
// The output schema is q's columns followed by r's. The sides are as written
// only under DisableOptimizer: otherwise joins over scans are ordered by
// estimated size, like their SQL spelling (see Plan).
func (q *Query) Join(r *Query, leftCol, rightCol string) *Query {
	return &Query{q.db, q.q.Join(r.q, leftCol, rightCol)}
}

// MergeJoin merge-joins q with r on leftCol = rightCol. Both inputs must
// already be ordered on their key (a Sort step, or a clustered ScanIndex on
// the key column).
func (q *Query) MergeJoin(r *Query, leftCol, rightCol string) *Query {
	return &Query{q.db, q.q.MergeJoin(r.q, leftCol, rightCol)}
}

// JoinOn nested-loop joins q (outer) with r on an arbitrary predicate over
// the concatenated row (columns of q first, then r's; names shared by both
// sides resolve to q's column). The order is Join's.
func (q *Query) JoinOn(r *Query, on Pred) *Query { return &Query{q.db, q.q.JoinOn(r.q, on)} }

// GroupBy hash-groups on the key columns and computes the aggregates per
// group. Output columns are the keys followed by the aggregates.
func (q *Query) GroupBy(keys []string, aggs ...Agg) *Query {
	return &Query{q.db, q.q.GroupBy(keys, aggs...)}
}

// Aggregate computes scalar aggregates over the whole input, emitting one
// row.
func (q *Query) Aggregate(aggs ...Agg) *Query { return &Query{q.db, q.q.Aggregate(aggs...)} }

// Sort orders the output ascending on the named columns.
func (q *Query) Sort(cols ...string) *Query { return &Query{q.db, q.q.Sort(cols...)} }

// SortDesc orders the output descending on the named columns.
func (q *Query) SortDesc(cols ...string) *Query { return &Query{q.db, q.q.SortDesc(cols...)} }

// Limit stops the query after n output rows. It is a property of the whole
// query, wherever in the chain it is written. When the finished plan's root
// is a Sort and n is at most what one in-memory sort run holds, the limit
// moves into the plan — the Sort becomes a Top-N keeping n rows, and n is
// part of its signature, so two such queries share the sort only when their
// limits are equal (their scans below still share). For every other plan
// the Result delivers n rows, then cancels the remaining upstream work,
// and the plan's signature is that of the unlimited query.
func (q *Query) Limit(n int64) *Query { return &Query{q.db, q.q.Limit(n)} }

// Plan compiles the query, returning the physical plan (or the first
// builder error). Unless the DB was opened with DisableOptimizer, predicates
// are canonicalized and pushed into scans, so equivalent queries converge on
// one Signature() and share work under OSP; joins over scans are ordered by
// the estimates EXPLAIN prints (plan.ReorderJoins); every scan reads only the
// columns the plan above it reads (plan.PruneColumns) and gets its access
// path, an index where the statistics say it reads fewer pages than the heap
// (plan.ChooseAccessPaths; a ScanIndex stays the path it names). Last, a
// limit the root Sort can hold makes it a Top-N (see Limit). The builder and
// SQL compile alike, which keeps their plans byte-identical.
func (q *Query) Plan() (Plan, error) {
	p, _, err := q.compile()
	return p, err
}

// compile is Plan plus the limit left for the Result to apply.
func (q *Query) compile() (Plan, int64, error) { return q.q.Compile(!q.db.noOpt) }

// Schema returns the query's output schema (nil if the builder failed).
func (q *Query) Schema() *Schema { return q.q.Schema() }

// Explain renders the compiled plan as an indented operator tree, each
// node annotated with the statistics-based cardinality estimate (rows≈N).
func (q *Query) Explain() (string, error) {
	p, err := q.Plan()
	if err != nil {
		return "", err
	}
	return q.q.Explain(p), nil
}

// Run submits the query for execution with the given per-query options and
// returns a streaming Result. The caller must consume it (Rows, All,
// Discard) or Cancel it.
func (q *Query) Run(ctx context.Context, opts ...QueryOption) (*Result, error) {
	return q.runIn(ctx, nil, opts)
}

// runIn is Run under a session: its options (Session.resolve), and inside
// its open transaction the guard against reading what it wrote (Tx.guard).
// A nil sess is Run.
func (q *Query) runIn(ctx context.Context, sess *Session, opts []QueryOption) (*Result, error) {
	p, limit, err := q.compile()
	if err == nil && sess != nil {
		err = sess.tx.guard(p)
	}
	if err != nil {
		return nil, err
	}
	o, err := sess.resolve(opts)
	if err != nil {
		return nil, err
	}
	return q.db.run(ctx, p, limit, o)
}
