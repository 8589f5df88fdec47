// Package plan defines physical query plans: trees of operator nodes, each
// of which becomes one QPipe packet (or one Volcano iterator in the
// comparator engine). QPipe's input is precompiled plans — the paper used
// plans derived from a commercial optimizer (§4.2); this repo's workload
// package plays that role, hand-building the TPC-H and Wisconsin plans.
//
// Every node carries a Signature: the canonical "encoded argument list" the
// packet dispatcher attaches to packets so a µEngine can detect overlapping
// work with a cheap string comparison (§4.3). Two nodes with equal
// signatures compute identical results. The dispatcher renders it once per
// packet, bottom up: SignatureOver puts a node's own arguments around its
// children's signatures, already rendered for their packets.
package plan

import (
	"strconv"
	"strings"
	"sync/atomic"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// OpType identifies which µEngine executes a node.
type OpType string

// The µEngine families. Each value names a dedicated micro-engine in the
// QPipe runtime (paper Figure 5b shows S, I, J, A).
const (
	OpTableScan OpType = "tscan"
	OpIndexScan OpType = "iscan"
	OpFilter    OpType = "filter"
	OpProject   OpType = "project"
	OpSort      OpType = "sort"
	OpMergeJoin OpType = "mjoin"
	OpHashJoin  OpType = "hjoin"
	OpNLJoin    OpType = "nljoin"
	OpAggregate OpType = "agg"
	OpGroupBy   OpType = "groupby"
	OpUpdate    OpType = "update"
)

// Node is one physical operator.
type Node interface {
	// Op names the µEngine that executes this node.
	Op() OpType
	// Children returns input nodes (leaves return nil).
	Children() []Node
	// Schema is the output schema.
	Schema() *tuple.Schema
	// Signature canonically encodes the node and its subtree.
	Signature() string
}

// SignatureOver returns n's signature rendered around kids, the signatures
// of n's children in child order: Signature without rendering the subtree
// again. A node of another package renders itself.
func SignatureOver(n Node, kids []string) string {
	if r, ok := n.(interface{ over(kids []string) string }); ok {
		return r.over(kids)
	}
	return n.Signature()
}

// signature is every node's Signature: SignatureOver its children's.
func signature(n Node) string {
	var kids []string
	for _, c := range n.Children() {
		kids = append(kids, c.Signature())
	}
	return SignatureOver(n, kids)
}

// sigList renders the signatures of xs separated by commas.
func sigList[T interface{ Signature() string }](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.Signature()
	}
	return strings.Join(parts, ",")
}

// intList renders xs as %v does: [1 2 3].
func intList(xs []int) string {
	var buf [64]byte
	b := append(buf[:0], '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(append(b, ']'))
}

// predSig renders an optional predicate: nil holds everywhere.
func predSig(p expr.Pred) string {
	if p == nil {
		return "true"
	}
	return p.Signature()
}

// ---- Leaves -----------------------------------------------------------------

// TableScan reads a heap file. Filter and Project are applied per-consumer
// inside the scan µEngine (so scans with different predicates still share
// one circular page stream). Ordered scans require tuples in stored page
// order — a spike overlap; unordered scans are linear.
type TableScan struct {
	Table       string
	TableSchema *tuple.Schema
	Filter      expr.Pred // nil = no filter
	Project     []int     // nil = all columns
	Ordered     bool      // require page order (spike WoP)

	out *tuple.Schema
}

// NewTableScan builds a table-scan node.
func NewTableScan(table string, schema *tuple.Schema, filter expr.Pred, project []int, ordered bool) *TableScan {
	ts := &TableScan{Table: table, TableSchema: schema, Filter: filter, Project: project, Ordered: ordered}
	if project == nil {
		ts.out = schema
	} else {
		ts.out = schema.Project(project)
	}
	return ts
}

// Op implements Node.
func (s *TableScan) Op() OpType { return OpTableScan }

// Children implements Node.
func (s *TableScan) Children() []Node { return nil }

// Schema implements Node.
func (s *TableScan) Schema() *tuple.Schema { return s.out }

// Signature implements Node.
func (s *TableScan) Signature() string { return signature(s) }

func (s *TableScan) over([]string) string {
	return "tscan(" + s.Table + ";" + predSig(s.Filter) + ";" + projectSig(s.Project) + ";" + strconv.FormatBool(s.Ordered) + ")"
}

// projectSig encodes a scan's projection. A nil list (every column) and an
// empty one (no column: the scan under a lone count(*)) both print as [] with
// %v, and equal signatures promise equal rows — so the empty list gets a
// spelling of its own and nil keeps the one it always had.
func projectSig(project []int) string {
	if project != nil && len(project) == 0 {
		return "[none]"
	}
	return intList(project)
}

// IndexScan reads via a B+tree index. Clustered scans produce full tuples in
// key order; unclustered scans probe for RIDs, sort them in page order and
// fetch from the heap (two phases: full-overlap RID-list build, then
// linear/spike fetch).
type IndexScan struct {
	Table       string
	TableSchema *tuple.Schema
	Col         string      // indexed column
	Lo, Hi      tuple.Value // invalid = open bound
	Clustered   bool
	Ordered     bool // consumer requires key order (spike WoP when clustered)
	Filter      expr.Pred
	Project     []int

	// LeafFrom/LeafTo restrict a clustered scan to a leaf-ordinal range
	// [LeafFrom, LeafTo). LeafTo < 0 means to-the-end. The OSP coordinator
	// uses these for the complement packet of an ordered-scan split
	// (§4.3.2); ordinary plans leave them at 0/-1.
	LeafFrom int
	LeafTo   int

	out *tuple.Schema
}

// Whole reports whether the scan reads its whole clustered index: no key
// bound, no leaf range. Only such a scan shares a scan group (§4.3.1).
func (s *IndexScan) Whole() bool {
	return s.Clustered && !s.Lo.IsValid() && !s.Hi.IsValid() && s.LeafFrom <= 0 && s.LeafTo < 0
}

// NewIndexScan builds an index-scan node.
func NewIndexScan(table string, schema *tuple.Schema, col string, lo, hi tuple.Value, clustered, ordered bool, filter expr.Pred, project []int) *IndexScan {
	is := &IndexScan{Table: table, TableSchema: schema, Col: col, Lo: lo, Hi: hi,
		Clustered: clustered, Ordered: ordered, Filter: filter, Project: project, LeafTo: -1}
	if project == nil {
		is.out = schema
	} else {
		is.out = schema.Project(project)
	}
	return is
}

// Op implements Node.
func (s *IndexScan) Op() OpType { return OpIndexScan }

// Children implements Node.
func (s *IndexScan) Children() []Node { return nil }

// Schema implements Node.
func (s *IndexScan) Schema() *tuple.Schema { return s.out }

// Signature implements Node.
func (s *IndexScan) Signature() string { return signature(s) }

func (s *IndexScan) over([]string) string {
	return "iscan(" + s.Table + ";" + s.Col + ";" + s.Lo.String() + ";" + s.Hi.String() + ";" +
		strconv.FormatBool(s.Clustered) + ";" + strconv.FormatBool(s.Ordered) + ";" + predSig(s.Filter) + ";" +
		projectSig(s.Project) + ";" + strconv.Itoa(s.LeafFrom) + ":" + strconv.Itoa(s.LeafTo) + ")"
}

// ---- Unary operators ---------------------------------------------------------

// Filter drops tuples failing the predicate.
type Filter struct {
	Child Node
	Pred  expr.Pred
}

// NewFilter builds a filter node.
func NewFilter(child Node, pred expr.Pred) *Filter { return &Filter{Child: child, Pred: pred} }

// Op implements Node.
func (f *Filter) Op() OpType { return OpFilter }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Schema implements Node.
func (f *Filter) Schema() *tuple.Schema { return f.Child.Schema() }

// Signature implements Node.
func (f *Filter) Signature() string { return signature(f) }

func (f *Filter) over(kids []string) string {
	return "filter(" + f.Pred.Signature() + ";" + kids[0] + ")"
}

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string

	out *tuple.Schema
}

// NewProject builds a projection node. Names label output columns; kinds are
// inferred lazily as KindInvalid (projection outputs are intermediate).
func NewProject(child Node, exprs []expr.Expr, names []string) *Project {
	cols := make([]tuple.Column, len(exprs))
	for i := range exprs {
		var name string
		if i < len(names) {
			name = names[i]
		} else {
			name = "e" + strconv.Itoa(i)
		}
		cols[i] = tuple.Column{Name: name, Kind: tuple.KindInvalid}
	}
	return &Project{Child: child, Exprs: exprs, Names: names, out: &tuple.Schema{Cols: cols}}
}

// Op implements Node.
func (p *Project) Op() OpType { return OpProject }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Schema implements Node.
func (p *Project) Schema() *tuple.Schema { return p.out }

// Signature implements Node.
func (p *Project) Signature() string { return signature(p) }

func (p *Project) over(kids []string) string {
	return "project(" + sigList(p.Exprs) + ";" + kids[0] + ")"
}

// SortRunSize is the number of tuples the sort µEngine sorts in memory per
// spilled run, and so the largest Limit a Sort may carry: what one run may
// hold is what a Top-N may hold.
const SortRunSize = 16384

// Sort orders its input on key columns. Phase 1 (sorting) is a full
// overlap; phase 2 (emitting the sorted stream) is linear via the
// materialized sorted run (§3.2: "one query may have already sorted a file
// that another query is about to start sorting").
//
// Limit > 0 makes it a Top-N: only the first Limit rows of the order are
// produced (ORDER BY … LIMIT n; Query.Plan sets it when the plan's root is a
// Sort and 0 < n <= SortRunSize), kept in a bounded heap with no temp file.
// The limit is part of the signature — sorts that differ in n produce
// different rows, and equal signatures mean equal rows.
type Sort struct {
	Child Node
	Keys  []int
	Desc  bool
	Limit int64
}

// NewSort builds a sort node.
func NewSort(child Node, keys []int, desc bool) *Sort {
	return &Sort{Child: child, Keys: keys, Desc: desc}
}

// Op implements Node.
func (s *Sort) Op() OpType { return OpSort }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Schema implements Node.
func (s *Sort) Schema() *tuple.Schema { return s.Child.Schema() }

// Signature implements Node.
func (s *Sort) Signature() string { return signature(s) }

func (s *Sort) over(kids []string) string {
	top := ""
	if s.Limit > 0 {
		top = "top=" + strconv.FormatInt(s.Limit, 10) + ";"
	}
	return "sort(" + intList(s.Keys) + ";" + strconv.FormatBool(s.Desc) + ";" + top + kids[0] + ")"
}

// WithTopN returns the plan with its limit moved into the root when the
// root is a Sort that can hold n rows in memory, and whether it did; the
// input is not mutated. Every other plan keeps its limit at result level.
func WithTopN(n Node, limit int64) (Node, bool) {
	s, ok := n.(*Sort)
	if !ok || limit <= 0 || limit > SortRunSize || s.Limit > 0 {
		return n, false
	}
	cp := *s
	cp.Limit = limit
	return &cp, true
}

// ---- Joins -------------------------------------------------------------------

// MergeJoin equi-joins two key-ordered inputs (step overlap). OrderedParent
// records whether the *consumer* of this join depends on output order: when
// false, the OSP coordinator may split the join in two to exploit an
// in-progress ordered scan (§4.3.2, Figure 9).
type MergeJoin struct {
	Left, Right   Node
	LKey, RKey    int
	OrderedParent bool

	out *tuple.Schema
}

// NewMergeJoin builds a merge-join node.
func NewMergeJoin(l, r Node, lkey, rkey int, orderedParent bool) *MergeJoin {
	return &MergeJoin{Left: l, Right: r, LKey: lkey, RKey: rkey,
		OrderedParent: orderedParent, out: l.Schema().Concat(r.Schema())}
}

// Op implements Node.
func (j *MergeJoin) Op() OpType { return OpMergeJoin }

// Children implements Node.
func (j *MergeJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Schema implements Node.
func (j *MergeJoin) Schema() *tuple.Schema { return j.out }

// Signature implements Node.
func (j *MergeJoin) Signature() string { return signature(j) }

func (j *MergeJoin) over(kids []string) string {
	return "mjoin(" + strconv.Itoa(j.LKey) + "=" + strconv.Itoa(j.RKey) + ";" + kids[0] + "|" + kids[1] + ")"
}

// HashJoin equi-joins by building a hash table on Left and probing with
// Right. The build phase is a full overlap; the probe phase is step (§3.2),
// which Figure 11 exercises.
type HashJoin struct {
	Left, Right Node // Left = build side
	LKey, RKey  int

	out *tuple.Schema
}

// NewHashJoin builds a hash-join node (left input is the build side).
func NewHashJoin(l, r Node, lkey, rkey int) *HashJoin {
	return &HashJoin{Left: l, Right: r, LKey: lkey, RKey: rkey, out: l.Schema().Concat(r.Schema())}
}

// Op implements Node.
func (j *HashJoin) Op() OpType { return OpHashJoin }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Schema implements Node.
func (j *HashJoin) Schema() *tuple.Schema { return j.out }

// Signature implements Node.
func (j *HashJoin) Signature() string { return signature(j) }

func (j *HashJoin) over(kids []string) string {
	return "hjoin(" + strconv.Itoa(j.LKey) + "=" + strconv.Itoa(j.RKey) + ";" + kids[0] + "|" + kids[1] + ")"
}

// NLJoin is a nested-loop join with an arbitrary predicate over the
// concatenated tuple (step overlap).
type NLJoin struct {
	Left, Right Node // Left = outer
	Pred        expr.Pred

	out *tuple.Schema
}

// NewNLJoin builds a nested-loop join node.
func NewNLJoin(l, r Node, pred expr.Pred) *NLJoin {
	return &NLJoin{Left: l, Right: r, Pred: pred, out: l.Schema().Concat(r.Schema())}
}

// Op implements Node.
func (j *NLJoin) Op() OpType { return OpNLJoin }

// Children implements Node.
func (j *NLJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Schema implements Node.
func (j *NLJoin) Schema() *tuple.Schema { return j.out }

// Signature implements Node.
func (j *NLJoin) Signature() string { return signature(j) }

func (j *NLJoin) over(kids []string) string {
	return "nljoin(" + j.Pred.Signature() + ";" + kids[0] + "|" + kids[1] + ")"
}

// ---- Aggregation -------------------------------------------------------------

// Aggregate computes scalar aggregates over its whole input, emitting one
// row (full overlap — shareable for its entire lifetime, §3.2).
type Aggregate struct {
	Child Node
	Specs []expr.AggSpec

	out *tuple.Schema
}

// NewAggregate builds a scalar-aggregate node.
func NewAggregate(child Node, specs []expr.AggSpec) *Aggregate {
	cols := make([]tuple.Column, len(specs))
	for i, s := range specs {
		name := s.Name
		if name == "" {
			name = s.Signature()
		}
		cols[i] = tuple.Column{Name: name, Kind: tuple.KindFloat}
	}
	return &Aggregate{Child: child, Specs: specs, out: &tuple.Schema{Cols: cols}}
}

// Op implements Node.
func (a *Aggregate) Op() OpType { return OpAggregate }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// Schema implements Node.
func (a *Aggregate) Schema() *tuple.Schema { return a.out }

// Signature implements Node.
func (a *Aggregate) Signature() string { return signature(a) }

func (a *Aggregate) over(kids []string) string {
	return "agg(" + sigList(a.Specs) + ";" + kids[0] + ")"
}

// GroupBy computes hash-grouped aggregates (step overlap: multiple results).
type GroupBy struct {
	Child Node
	Keys  []int
	Specs []expr.AggSpec

	out *tuple.Schema
}

// NewGroupBy builds a hash group-by node. Output columns are the group keys
// followed by the aggregates.
func NewGroupBy(child Node, keys []int, specs []expr.AggSpec) *GroupBy {
	in := child.Schema()
	cols := make([]tuple.Column, 0, len(keys)+len(specs))
	for _, k := range keys {
		cols = append(cols, in.Cols[k])
	}
	for _, s := range specs {
		name := s.Name
		if name == "" {
			name = s.Signature()
		}
		cols = append(cols, tuple.Column{Name: name, Kind: tuple.KindFloat})
	}
	return &GroupBy{Child: child, Keys: keys, Specs: specs, out: &tuple.Schema{Cols: cols}}
}

// Op implements Node.
func (g *GroupBy) Op() OpType { return OpGroupBy }

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.Child} }

// Schema implements Node.
func (g *GroupBy) Schema() *tuple.Schema { return g.out }

// Signature implements Node.
func (g *GroupBy) Signature() string { return signature(g) }

func (g *GroupBy) over(kids []string) string {
	return "groupby(" + intList(g.Keys) + ";" + sigList(g.Specs) + ";" + kids[0] + ")"
}

// ---- Updates -----------------------------------------------------------------

// MutationKind says what an Update node does to its table.
type MutationKind uint8

const (
	// MutInsert appends Rows to the table.
	MutInsert MutationKind = iota
	// MutUpdate rewrites rows matching Where using the Set assignments.
	MutUpdate
	// MutDelete removes rows matching Where.
	MutDelete
)

func (k MutationKind) String() string {
	return [...]string{"insert", "update", "delete"}[k]
}

// Assign is one SET clause of an UPDATE: target column index and the
// expression computing its new value over the old row.
type Assign struct {
	Col int
	E   expr.Expr
}

// Update mutates a table: insert, update or delete. Mutations are never
// shared (§3.2: sharing would violate transactional semantics); the update
// µEngine has no OSP functionality and serializes through the lock manager
// (§4.3.4).
type Update struct {
	Kind  MutationKind
	Table string
	Rows  []tuple.Tuple // MutInsert: rows to append
	Where expr.Pred     // MutUpdate/MutDelete: row filter (nil = all rows)
	Set   []Assign      // MutUpdate: assignments applied to matching rows
	seq   int64         // distinguishes otherwise-identical mutations in signatures
}

var updateSeq atomic.Int64

// NewUpdate builds an insert node.
func NewUpdate(table string, rows []tuple.Tuple) *Update {
	return &Update{Kind: MutInsert, Table: table, Rows: rows, seq: updateSeq.Add(1)}
}

// NewUpdateWhere builds an UPDATE ... SET ... WHERE node.
func NewUpdateWhere(table string, where expr.Pred, set []Assign) *Update {
	return &Update{Kind: MutUpdate, Table: table, Where: where, Set: set, seq: updateSeq.Add(1)}
}

// NewDelete builds a DELETE FROM ... WHERE node.
func NewDelete(table string, where expr.Pred) *Update {
	return &Update{Kind: MutDelete, Table: table, Where: where, seq: updateSeq.Add(1)}
}

// Op implements Node.
func (u *Update) Op() OpType { return OpUpdate }

// Children implements Node.
func (u *Update) Children() []Node { return nil }

// Schema implements Node: one row counting the affected tuples. The insert
// column name is kept for compatibility with existing consumers.
func (u *Update) Schema() *tuple.Schema {
	if u.Kind == MutInsert {
		return tuple.NewSchema(tuple.Col("inserted", tuple.KindInt))
	}
	return tuple.NewSchema(tuple.Col("affected", tuple.KindInt))
}

// Signature implements Node. Includes a sequence number: two textually
// identical mutations must never match as overlapping work.
func (u *Update) Signature() string { return signature(u) }

func (u *Update) over([]string) string {
	if u.Kind == MutInsert {
		return "update(" + u.Table + ";" + strconv.Itoa(len(u.Rows)) + ";#" + strconv.FormatInt(u.seq, 10) + ")"
	}
	return u.Kind.String() + "(" + u.Table + ";" + predSig(u.Where) + ";#" + strconv.FormatInt(u.seq, 10) + ")"
}

// Walk visits the plan tree depth-first (children before parents).
func Walk(n Node, fn func(Node)) {
	for _, c := range n.Children() {
		Walk(c, fn)
	}
	fn(n)
}

// Tables returns the table of every scan in the plan, left to right.
func Tables(n Node) []string {
	var out []string
	Walk(n, func(n Node) {
		switch x := n.(type) {
		case *TableScan:
			out = append(out, x.Table)
		case *IndexScan:
			out = append(out, x.Table)
		}
	})
	return out
}

// CountNodes returns the number of nodes in the plan.
func CountNodes(n Node) int {
	c := 0
	Walk(n, func(Node) { c++ })
	return c
}
