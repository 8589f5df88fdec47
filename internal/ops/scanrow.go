// From encoded rows to consumer rows: the part of the scan µEngine that
// decides, per consumer, whether a stored row becomes a tuple at all. A row
// is materialized only if its consumer keeps it — `col op literal` conjuncts
// are compared against the encoded column where it lies in the pinned page,
// the rest of the filter sees only the columns it reads, and only a row
// that passes both is carved, projected, from the worker's arena.
package ops

import (
	"fmt"
	"slices"

	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// rowProgram is one scan consumer's selection and projection, compiled once
// when the consumer attaches: the filter split into comparisons of one
// column with a literal (evaluated on the encoded bytes) and a residual
// predicate with the columns it reads, and the table columns of the output
// row.
type rowProgram struct {
	cmps     []encCmp
	residual expr.Pred // nil: the comparisons are the whole filter
	resCols  []int     // the columns residual reads
	out      []int     // table column of each output column
}

// encCmp is one `col op literal` conjunct.
type encCmp struct {
	col int
	op  expr.CmpOp
	lit tuple.Value
}

// compileRowProgram builds the program for a scan over rows of ncols
// columns (nil project keeps every column).
func compileRowProgram(filter expr.Pred, project []int, ncols int) *rowProgram {
	p := &rowProgram{out: project}
	if project == nil {
		p.out = make([]int, ncols)
		for i := range p.out {
			p.out[i] = i
		}
	}
	var rest []expr.Pred
	for _, c := range expr.Conjuncts(filter) {
		if col, op, lit, ok := expr.ColConst(c); ok {
			p.cmps = append(p.cmps, encCmp{col: col, op: op, lit: lit})
		} else {
			rest = append(rest, c)
		}
	}
	switch len(rest) {
	case 0:
		return p
	case 1:
		p.residual = rest[0]
	default:
		p.residual = expr.AndOf(rest...)
	}
	expr.PredRefs(p.residual, func(ix int) {
		if !slices.Contains(p.resCols, ix) {
			p.resCols = append(p.resCols, ix)
		}
	})
	return p
}

// rowBuilder is what one scanning goroutine owns to turn encoded rows into
// tuples: the column offsets of the row being looked at, a scratch row the
// residual predicates read (reused for every row, never published), and the
// arena kept rows are carved from. The arena lives across pages and
// consumers — a chunk is garbage once no row carved from it is referenced —
// so a page costs no allocation of its own.
type rowBuilder struct {
	offs    []int
	scratch tuple.Tuple
	arena   tuple.RowArena
}

func newRowBuilder(ncols int) *rowBuilder {
	return &rowBuilder{offs: make([]int, ncols+1), scratch: make(tuple.Tuple, ncols)}
}

// build returns p's output row for enc, whose column offsets b.offs holds
// (tuple.Offsets accepted the row), or ok=false when p's filter rejects it.
func (b *rowBuilder) build(p *rowProgram, enc []byte) (row tuple.Tuple, ok bool) {
	for _, c := range p.cmps {
		if !c.op.Holds(tuple.CompareEncoded(enc[b.offs[c.col]:], c.lit)) {
			return nil, false
		}
	}
	if p.residual != nil {
		for _, col := range p.resCols {
			b.scratch[col] = tuple.DecodeValue(enc[b.offs[col]:])
		}
		if !p.residual.Test(b.scratch) {
			return nil, false
		}
	}
	row = b.arena.Make(len(p.out))
	for i, col := range p.out {
		tuple.DecodeInto(&row[i], enc[b.offs[col]:])
	}
	return row, true
}

// buildPage visits page ord of src once, under one pin, and appends to
// outs[i] the rows progs[i] keeps, in stored order; an array is leased from
// pool for a consumer's first kept row, sized by capHint. The pin has ended
// when buildPage returns, so the caller may block delivering the batches
// without holding a frame. On error the leases taken so far are returned
// and every outs[i] is nil: no consumer is handed part of a page.
func buildPage(src pageSource, ord int64, b *rowBuilder, progs []*rowProgram, outs []tbuf.Batch, pool *tbuf.BatchPool, capHint int) error {
	err := src.visitPage(ord, func(enc []byte) error {
		if err := tuple.Offsets(enc, b.offs); err != nil {
			return fmt.Errorf("ops: page %d: %w", ord, err)
		}
		for i, p := range progs {
			if row, ok := b.build(p, enc); ok {
				if outs[i] == nil {
					outs[i] = pool.GetCap(capHint)
				}
				outs[i] = append(outs[i], row)
			}
		}
		return nil
	})
	if err != nil {
		for i := range outs {
			pool.Put(outs[i])
			outs[i] = nil
		}
	}
	return err
}
