// Access-path selection: the pass that decides, for every table scan of a
// normalized plan, whether a B+tree index reads fewer pages than the heap.
// Both front ends reach it through Query.Plan, after Normalize has pushed
// filters into the scans and PruneColumns has set their projections, so the
// SQL text and the builder spelling of one query get one access path and one
// signature.
//
// A scan qualifies when its filter has a conjunct comparing an indexed
// column with a literal (=, <, <=, >, >=; BETWEEN arrives from Normalize as
// two of those; the literal may stand on either side). The conjuncts on one
// column fold into a closed range [Lo, Hi]; a literal of another numeric kind
// is brought to the column's kind, rounded inward (oid < 10.5 bounds an INT
// column at 10), and a literal that cannot be is left to the filter. The
// range only ever narrows what the index reads: the whole filter stays on
// the IndexScan as residual, so a strict bound read inclusively, a rounded
// bound, and the ghost entries a lazily maintained unclustered index keeps
// for updated and deleted rows all stay harmless.
//
// The rule, in pages (the constants are the code below, there is nothing to
// tune): with f the estimated fraction of rows in the range,
//
//	unclustered:  height + f·leaves + f·rows   (about one heap page per row)
//	clustered:    height + f·leaves            (the rows are in the leaves)
//
// and the cheapest index replaces the scan when that is below the heap's
// page count. Without statistics (rows = 0) there is no estimate and the
// plan stays as written.
package plan

import (
	"math"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// Index describes one B+tree index of a table to the page rule.
type Index struct {
	Col       string
	Clustered bool
	Height    int   // pages a probe descends through
	Leaves    int64 // leaf pages
}

// Catalog is what access-path selection asks about stored tables: which
// columns carry which index, how large the heap is, and what the column
// statistics say about a key range. The facade implements it over the
// storage manager and the statistics registry.
type Catalog interface {
	// Indexes lists the table's indexes; nil when it has none.
	Indexes(table string) []Index
	// HeapPages is the number of pages a full scan of the table reads.
	HeapPages(table string) int64
	// RangeRows estimates how many of the table's rows have lo <= col <= hi
	// (an invalid bound is open), and how many rows the table has; zero rows
	// means there are no statistics to estimate from.
	RangeRows(table string, col int, lo, hi tuple.Value) (match, rows float64)
}

// ChooseAccessPaths returns the plan with each table scan replaced by the
// index scan the page rule prefers, if any. The input (a normalized plan) is
// not mutated: a node above a replaced scan is a shallow copy.
func ChooseAccessPaths(n Node, cat Catalog) Node {
	sub := func(c Node) Node { return ChooseAccessPaths(c, cat) }
	switch x := n.(type) {
	case *TableScan:
		if is := chooseIndex(x, cat); is != nil {
			return is
		}
	case *Filter:
		if c := sub(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	case *Project:
		if c := sub(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	case *Sort:
		if c := sub(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	case *Aggregate:
		if c := sub(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	case *GroupBy:
		if c := sub(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	case *HashJoin:
		if l, r := sub(x.Left), sub(x.Right); l != x.Left || r != x.Right {
			cp := *x
			cp.Left, cp.Right = l, r
			return &cp
		}
	case *MergeJoin:
		if l, r := sub(x.Left), sub(x.Right); l != x.Left || r != x.Right {
			cp := *x
			cp.Left, cp.Right = l, r
			return &cp
		}
	case *NLJoin:
		if l, r := sub(x.Left), sub(x.Right); l != x.Left || r != x.Right {
			cp := *x
			cp.Left, cp.Right = l, r
			return &cp
		}
	}
	return n
}

// keyRange is the closed interval the sargable conjuncts on one column
// allow; an invalid bound is open.
type keyRange struct{ lo, hi tuple.Value }

// narrow folds column-op-literal into the range. A literal the column's
// kind cannot represent inward of the bound is ignored: the filter still
// tests the conjunct.
func (r *keyRange) narrow(op expr.CmpOp, v tuple.Value, kind tuple.Kind) {
	if op == expr.CmpEQ || op == expr.CmpGT || op == expr.CmpGE {
		if b, ok := boundAs(v, kind, true); ok && (!r.lo.IsValid() || tuple.Compare(b, r.lo) > 0) {
			r.lo = b
		}
	}
	if op == expr.CmpEQ || op == expr.CmpLT || op == expr.CmpLE {
		if b, ok := boundAs(v, kind, false); ok && (!r.hi.IsValid() || tuple.Compare(b, r.hi) < 0) {
			r.hi = b
		}
	}
}

// boundAs brings a literal to the indexed column's kind for use as a lower
// (roundUp) or upper bound. Between numeric kinds a float rounds to the
// integer inward of it, so the range never admits a key the comparison
// rejects and never drops one it accepts; an integer too large for float64
// to hold exactly, a non-finite float and a string against a number (or the
// reverse) are not usable.
func boundAs(v tuple.Value, kind tuple.Kind, roundUp bool) (tuple.Value, bool) {
	switch {
	case v.K == kind:
		return v, true
	case v.K == tuple.KindFloat && (kind == tuple.KindInt || kind == tuple.KindDate):
		f := math.Floor(v.F)
		if roundUp {
			f = math.Ceil(v.F)
		}
		if math.IsNaN(f) || f < -(1<<62) || f > 1<<62 {
			return tuple.Value{}, false
		}
		return tuple.Value{K: kind, I: int64(f)}, true
	case v.K == tuple.KindInt || v.K == tuple.KindDate:
		switch kind {
		case tuple.KindInt, tuple.KindDate:
			return tuple.Value{K: kind, I: v.I}, true
		case tuple.KindFloat:
			if f := float64(v.I); f > -(1<<53) && f < 1<<53 {
				return tuple.F64(f), true
			}
		}
	}
	return tuple.Value{}, false
}

// chooseIndex applies the page rule to one table scan; nil keeps the scan.
func chooseIndex(s *TableScan, cat Catalog) *IndexScan {
	if s.Filter == nil || s.Ordered { // an ordered scan promises stored page order
		return nil
	}
	indexes := cat.Indexes(s.Table)
	if len(indexes) == 0 {
		return nil
	}
	conjuncts := expr.Conjuncts(s.Filter)
	heapPages := float64(cat.HeapPages(s.Table))
	var best *IndexScan
	bestPages := heapPages
	for _, ix := range indexes {
		col := s.TableSchema.ColIndex(ix.Col)
		if col < 0 {
			continue
		}
		var r keyRange
		for _, c := range conjuncts {
			if at, op, v, ok := expr.ColConst(c); ok && at == col && op != expr.CmpNE {
				r.narrow(op, v, s.TableSchema.Cols[col].Kind)
			}
		}
		if !r.lo.IsValid() && !r.hi.IsValid() {
			continue
		}
		match, rows := cat.RangeRows(s.Table, col, r.lo, r.hi)
		if rows <= 0 {
			continue
		}
		pages := float64(ix.Height) + match/rows*float64(ix.Leaves)
		if !ix.Clustered {
			pages += match
		}
		if pages < bestPages {
			bestPages = pages
			best = NewIndexScan(s.Table, s.TableSchema, ix.Col, r.lo, r.hi, ix.Clustered, false, s.Filter, s.Project)
		}
	}
	return best
}
