// From encoded rows to consumer rows: the part of the scan µEngine that
// decides, per consumer, whether a stored row becomes a tuple at all. A page
// is worked on as a whole, under its one pin: the frame's layout locates every
// column of every live row and holds each kind-uniform numeric column decoded
// into a vector — once for all consumers and, while the page stays resident
// and unwritten, for all scans; each consumer then narrows a selection vector
// of row numbers with one loop per `col op literal` conjunct, on the column's
// vector or its bytes (and one more when a Top-N handed its bound over, and
// one more when a hash join handed its build keys over: a key looked up in a
// direct table of small integer keys, or one hash a row tested in a bitmap),
// runs the rest of its filter on the survivors only, and has all of them
// carved from the worker's arena at once and filled column by column — or,
// when the consumer is an aggregate that handed its accumulators down, added
// to those where they lie, an aggregate at a time over the whole selection,
// each row's group found once per key value a worker has seen when the one
// group key is a number column.
package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/storage/buffer"
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

// encCmp is one `col op literal` conjunct. holds has bit o set when the
// operator accepts a column ordered o against the literal: 0 below, 1 equal
// (or unordered: a NaN), 2 above.
type encCmp struct {
	col    int
	lit    tuple.Value
	litNum bool // the literal is a number: a vector is compared as numbers
	holds  uint8
}

// colCmp is the conjunct `col op lit`.
func colCmp(col int, op expr.CmpOp, lit tuple.Value) encCmp {
	c := encCmp{col: col, lit: lit, litNum: lit.K != tuple.KindString && lit.IsValid()}
	for o := 0; o <= 2; o++ {
		if op.Holds(o - 1) {
			c.holds |= 1 << o
		}
	}
	return c
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
			p.cmps = append(p.cmps, colCmp(col, op, lit))
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

// scanFold is an aggregate's accumulators as the scan below it sees them
// (core.Packet.SetFold): the group keys and the aggregates' arguments in the
// aggregate's input columns, and the partial table each of the scan's
// partition workers fills. The input is the scan's output row — or, when the
// fold went through a hash join (HashJoinOp.handDown, which sets the second
// group of fields before the scan sees any of it), a build row of width
// columns followed by the scan's output row: one pair for every build row whose
// key the scanned row's equals. A worker registers its partial before it
// settles the first page it folds into it, so all are here when the scan
// packet completes.
type scanFold struct {
	keys  []int
	specs []expr.AggSpec

	build *hashTable      // nil: the aggregate reads the scan itself
	lkey  int             // the build rows' key column
	width int             // and how many columns they have
	probe *core.KeyFilter // the build keys (buildKeys), with the probe key's table column

	mu       sync.Mutex
	partials []*groupTable // by scan partition
}

// partial returns scan partition k's partial table, registered on first use.
func (f *scanFold) partial(k int) *groupTable {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.partials) <= k {
		f.partials = append(f.partials, nil)
	}
	if f.partials[k] == nil {
		gt := newGroupTable(f.keys, f.specs)
		switch {
		case f.build != nil && len(f.keys) > 0 && !slices.ContainsFunc(f.keys, func(c int) bool { return c >= f.width }):
			gt.ofBuild = slices.Repeat([]int32{-1}, len(f.build.rows))
		case len(f.keys) == 1 && f.keys[0] >= f.width:
			gt.memo = new([256]memoEntry)
		}
		f.partials[k] = gt
	}
	return f.partials[k]
}

// everyRow is 0, 1, 2, …: every row number a page can have, its slot count
// being a uint16. It is written once and only read.
var everyRow [1 << 16]int32

func init() {
	for r := range everyRow {
		everyRow[r] = int32(r)
	}
}

// pageTask is one consumer's share of a page: what it wants of the rows
// going in — built, or added to part when its aggregate handed fold down (keys
// is then the fold's probe keys when the fold went through a join);
// its batch, how many rows its join's keys excluded (by the direct table, by
// the bitmap or, in a fold through the join, by the compare), how many its
// Top-N's bound did and how many rows or pairs were folded, coming out.
type pageTask struct {
	prog    *rowProgram
	keys    *core.KeyFilter // nil: no join narrowed this consumer
	bound   *encCmp         // nil: no Top-N bounds this consumer (yet)
	fold    *scanFold       // nil: the consumer wants rows
	part    *groupTable     // the worker's partial table of fold
	out     tbuf.Batch
	skipped int
	bounded int
	folded  int
}

// pageKernel is what one scanning goroutine owns to turn a page of encoded
// rows into tuples: the pinned frame's bytes and layout, each column's number
// vector (nil: none) and kind, the selection vector of the consumer being
// served with a hash or a direct table's head entry and, when it folds, a
// group a row (after its build row through a join) and the rows a group memo
// missed, a scratch row the residual predicates (in table columns) and then
// the aggregate arguments (in the aggregate's input columns) read, never
// published, and the arena kept rows are carved from. The arena lives across
// pages and consumers — a chunk is garbage once no row carved from it is
// referenced — so a page costs no allocation of its own.
type pageKernel struct {
	buf     []byte   // the pinned frame
	stride  int      // ncols + 1
	offs    []uint16 // column c of row r starts at buf[offs[r*stride+c]]
	nrows   int
	kinds   []tuple.Kind
	vecs    [][]uint64
	sel     []int32
	hs      []uint64
	pairs   []int32 // the probe row of each (probe row, build row) pair
	builds  []int32 // and its build row
	groups  []int32
	misses  []int32 // indexes into the rows being grouped
	scratch tuple.Tuple
	arena   tuple.RowArena
}

func newPageKernel(ncols int) *pageKernel {
	return &pageKernel{stride: ncols + 1, kinds: make([]tuple.Kind, ncols), vecs: make([][]uint64, ncols), scratch: make(tuple.Tuple, ncols)}
}

// buildPage visits page ord of src once, under one pin, and leaves in each
// task's out the rows its consumer keeps, in stored order, in an array of
// exactly that many (none for a consumer that keeps no row); fresh says the
// visit derived the page's layout. The pin has ended when buildPage returns,
// so the caller may block delivering the batches without holding a frame. A
// page that fails — a damaged slot or row — fails where its layout is
// derived, before the first row is built: no consumer is handed part of a
// page.
func buildPage(src pageSource, ord int64, k *pageKernel, tasks []pageTask) (fresh bool, err error) {
	fr, l, fresh, err := src.pinPage(ord)
	if err != nil {
		return false, fmt.Errorf("ops: page %d: %w", ord, err)
	}
	k.run(fr.Data(), l, tasks)
	fr.Unpin()
	return fresh, nil
}

// run is buildPage on bytes and their layout already at hand (valid for the
// call). Nothing in it can fail: the layout's maker checked every byte it
// will read.
func (k *pageKernel) run(buf []byte, l *buffer.Layout, tasks []pageTask) {
	k.buf, k.offs, k.nrows = buf, l.Offs, l.Rows
	for c := range k.vecs {
		kind, vec := l.Vec(c)
		k.kinds[c], k.vecs[c] = tuple.Kind(kind), vec
	}
	for ti := range tasks {
		t := &tasks[ti]
		sel := k.selected(t)
		if len(sel) == 0 {
			continue
		}
		// Build or fold.
		if t.fold != nil {
			k.fold(t, sel)
			continue
		}
		// One carve for the page: the rows are slices of it.
		w := len(t.prog.out)
		vals := k.arena.Make(len(sel) * w)
		t.out = make(tbuf.Batch, 0, len(sel))
		for i := range sel {
			t.out = append(t.out, vals[i*w:(i+1)*w:(i+1)*w])
		}
		for j, col := range t.prog.out {
			if kind, vec := k.kinds[col], k.vecs[col]; vec != nil {
				for i, r := range sel {
					tuple.SetNumber(&vals[i*w+j], kind, vec[r])
				}
				continue
			}
			for i, r := range sel {
				tuple.DecodeInto(&vals[i*w+j], k.at(r, col))
			}
		}
	}
}

// fold adds the loaded page's rows sel to t's partial table. Through a join
// each row first becomes its (probe row, build row) pairs, one for every build
// row of its key, newest first as the join's chain has them: with a direct
// table the chain of duplicates from the head entry selected left, every key
// equal by construction; with a bitmap the chain of the key's hash — the one
// selected computed — walked and the key compared against each build row's,
// so a false positive of the bitmap gives none. Then each input row's group
// is found — the key hashed in the aggregate's key order, a column at a time
// (tuple.HashValue of a build column, k.hash of a scanned one: together
// tuple.HashAt of the row the join would have built, so absorb merges partials
// from pages and from rows) and compared (group) — once per build row when
// every key is a build column (ofBuild), once per number a worker has seen
// when the one key is a scanned column with a vector (memoized) — and every
// aggregate is fed in a loop of its own, from the side its argument lives on:
// a count (a scalar one adds the selection's length), a build column's Value,
// the scanned column's vector (the whole selection in one expr.AddNumbers) or
// encoded bytes, or an expression on the scratch row. Input column c of a row
// is build column c when c < wl, else table column out[c-wl]; without a build
// side wl is 0 and the rows are sel.
func (k *pageKernel) fold(t *pageTask, sel []int32) {
	f, part, out, wl := t.fold, t.part, t.prog.out, t.fold.width
	rows, builds := sel, []int32(nil)
	if f.build != nil {
		rows, builds = k.pairs[:0], k.builds[:0]
		if next := f.probe.Next; f.probe.Dense != nil {
			for i, r := range sel {
				for e := int32(k.hs[i]); e != 0; e = next[e-1] {
					rows, builds = append(rows, r), append(builds, e-1)
				}
			}
		} else {
			for i, r := range sel {
				h, n := k.hs[i], len(rows)
				for b := f.build.first(h); b >= 0; b = f.build.after(b, h) {
					if k.equal(r, f.probe.Col, f.build.rows[b][f.lkey]) {
						rows, builds = append(rows, r), append(builds, int32(b))
					}
				}
				if len(rows) == n {
					t.skipped++
				}
			}
		}
		if k.pairs, k.builds = rows, builds; len(rows) == 0 {
			return
		}
	}
	if cap(k.groups) < len(rows) {
		k.groups = make([]int32, max(len(rows), k.nrows))
	}
	groups := k.groups[:len(rows)]
	switch {
	case len(f.keys) == 0: // a scalar aggregate: every row is of group 0
		if len(part.states) == 0 {
			part.newGroup(tuple.HashSeed, nil)
		}
		clear(groups)
	case part.ofBuild != nil: // every key is a build column: a build row's group is found once
		for i, b := range builds {
			if part.ofBuild[b] < 0 {
				h := tuple.HashSeed
				for _, c := range f.keys {
					h = tuple.HashValue(h, &f.build.rows[b][c])
				}
				part.ofBuild[b] = k.group(t, h, -1, f.build.rows[b])
			}
			groups[i] = part.ofBuild[b]
		}
	case part.memo != nil && k.vecs[out[f.keys[0]-wl]] != nil:
		k.memoized(t, groups, rows, out[f.keys[0]-wl])
	default:
		hs := k.seeded(len(rows))
		for _, c := range f.keys {
			if c >= wl {
				k.hash(hs, rows, out[c-wl])
				continue
			}
			for i, b := range builds {
				hs[i] = tuple.HashValue(hs[i], &f.build.rows[b][c])
			}
		}
		var b tuple.Tuple
		for i, r := range rows {
			if builds != nil {
				b = f.build.rows[builds[i]]
			}
			groups[i] = k.group(t, hs[i], r, b)
		}
	}
	for j, s := range f.specs {
		col, bare := s.Arg.(*expr.ColRef)
		switch {
		case s.Arg == nil || s.Kind == expr.AggCount: // a count does not look at its argument
			if len(f.keys) == 0 {
				part.states[0][j].AddCount(int64(len(rows)))
				continue
			}
			for _, g := range groups {
				part.states[g][j].AddCount(1)
			}
		case bare && col.Ix < wl:
			for i, bi := range builds {
				part.states[groups[i]][j].AddValue(f.build.rows[bi][col.Ix])
			}
		case bare && k.vecs[out[col.Ix-wl]] != nil:
			c := out[col.Ix-wl]
			expr.AddNumbers(part.states, j, groups, k.kinds[c], k.vecs[c], rows)
		case bare:
			for i, r := range rows {
				part.states[groups[i]][j].AddEncoded(k.at(r, out[col.Ix-wl]))
			}
		default:
			if len(k.scratch) < wl+len(out) {
				k.scratch = make(tuple.Tuple, wl+len(out))
			}
			for i, r := range rows {
				if builds != nil {
					copy(k.scratch, f.build.rows[builds[i]])
				}
				for o, c := range out {
					k.scratch[wl+o] = k.value(r, c)
				}
				part.states[groups[i]][j].AddValue(s.Arg.Eval(k.scratch))
			}
		}
	}
	t.folded = len(rows)
}

// group returns the group in t's partial of the input row — scanned row r
// after build row b — whose key hashes to h: found by comparing keys along the
// hash's chain, or started, its key made a Value once.
func (k *pageKernel) group(t *pageTask, h uint64, r int32, b tuple.Tuple) int32 {
	f, part, out, wl := t.fold, t.part, t.prog.out, t.fold.width
next:
	for g := part.groups.first(h); g >= 0; g = part.groups.after(g, h) {
		for j, c := range f.keys {
			if c < wl && !tuple.Equal(b[c], part.groups.rows[g][j]) || c >= wl && !k.equal(r, out[c-wl], part.groups.rows[g][j]) {
				continue next
			}
		}
		return int32(g)
	}
	key := make(tuple.Tuple, len(f.keys))
	for j, c := range f.keys {
		if c < wl {
			key[j] = b[c]
		} else {
			key[j] = k.value(r, out[c-wl])
		}
	}
	return int32(part.newGroup(h, key))
}

// memoized finds the group of each of rows, the one key being column col,
// which has a vector, through t's partial's memo: a hit is one load and one
// compare of the number's kind and bits. The misses, gathered in that loop,
// are hashed in one loop and looked up as group would, comparing numbers
// (numberGroup), and a number's group is remembered when its magnitude is
// below 2^53. Every key of such a number's hash chain then has its value
// exactly, tuple.Equal is an equivalence among them, and the lookup would
// give the same answer again — unlike for an integer beyond, which equals a
// FLOAT that equals its neighbour.
func (k *pageKernel) memoized(t *pageTask, groups, rows []int32, col int) {
	memo, kind, vec := t.part.memo, k.kinds[col], k.vecs[col]
	if cap(k.misses) < len(rows) {
		k.misses = make([]int32, len(rows))
	}
	if cap(k.hs) < len(rows) {
		k.hs = make([]uint64, len(rows))
	}
	misses, n := k.misses[:len(rows)], 0
	for i, r := range rows {
		bits := vec[r]
		e := &memo[memoSlot(bits)]
		groups[i], misses[n] = e.group, int32(i)
		if e.bits != bits || e.kind != kind {
			n++
		}
	}
	misses, hs := misses[:n], k.hs[:n]
	for j, i := range misses {
		hs[j] = tuple.HashNumber(tuple.HashSeed, kind, vec[rows[i]])
	}
	for j, i := range misses {
		bits := vec[rows[i]]
		g := numberGroup(t.part, hs[j], kind, bits)
		x := float64(int64(bits))
		if kind == tuple.KindFloat {
			x = math.Float64frombits(bits)
		}
		if math.Abs(x) < 1<<53 {
			memo[memoSlot(bits)] = memoEntry{bits: bits, kind: kind, group: g}
		}
		groups[i] = g
	}
}

// numberGroup is group for a table whose one key is the number of kind k with
// payload bits, which hashes to h.
func numberGroup(gt *groupTable, h uint64, k tuple.Kind, bits uint64) int32 {
	for g := gt.groups.first(h); g >= 0; g = gt.groups.after(g, h) {
		if tuple.CompareNumber(k, bits, gt.groups.rows[g][0]) == 0 {
			return int32(g)
		}
	}
	key := make(tuple.Tuple, 1)
	tuple.SetNumber(&key[0], k, bits)
	return int32(gt.newGroup(h, key))
}

// memoSlot is the memo slot of a number's bits: their top byte after a
// multiply by 2^64/φ, so that runs of small integers spread.
func memoSlot(bits uint64) uint8 { return uint8(bits * 0x9e3779b97f4a7c15 >> 56) }

// at returns row r of the loaded page from its column col on.
func (k *pageKernel) at(r int32, col int) []byte {
	return k.buf[k.offs[int(r)*k.stride+col]:]
}

// value returns column col of row r: from the column's vector, or decoded.
func (k *pageKernel) value(r int32, col int) (v tuple.Value) {
	if vec := k.vecs[col]; vec != nil {
		tuple.SetNumber(&v, k.kinds[col], vec[r])
		return v
	}
	return tuple.DecodeValue(k.at(r, col))
}

// equal reports whether column col of row r equals v, as tuple.Equal would.
func (k *pageKernel) equal(r int32, col int, v tuple.Value) bool {
	if vec := k.vecs[col]; vec != nil {
		return tuple.CompareNumber(k.kinds[col], vec[r], v) == 0
	}
	return tuple.CompareEncoded(k.at(r, col), v) == 0
}

// seeded returns n hash states at tuple.HashSeed, in k.hs.
func (k *pageKernel) seeded(n int) []uint64 {
	if cap(k.hs) < n {
		k.hs = make([]uint64, n)
	}
	hs := k.hs[:n]
	for i := range hs {
		hs[i] = tuple.HashSeed
	}
	return hs
}

// hash folds column col of each of rows into its state in hs — the one hash
// pass of the page kernel: the bitmap's, the probe's (the same hashes) and the
// group keys' — as tuple.HashAt folds the decoded value.
func (k *pageKernel) hash(hs []uint64, rows []int32, col int) {
	if kind, vec := k.kinds[col], k.vecs[col]; vec != nil {
		for i, r := range rows {
			hs[i] = tuple.HashNumber(hs[i], kind, vec[r])
		}
		return
	}
	for i, r := range rows {
		hs[i] = tuple.HashEncoded(hs[i], k.at(r, col))
	}
}

// selected returns the numbers of the loaded page's rows that t's consumer
// keeps — its Top-N's bound is one more comparison after its own — and, when
// a join's keys narrowed it, leaves at the same index of k.hs each kept row's
// head entry of the direct table or its key's hash. The selection starts as
// everyRow, only read; each step writes the rows it keeps to k.sel, in place
// from the second on: the write index never passes the read index.
func (k *pageKernel) selected(t *pageTask) []int32 {
	if len(k.sel) < k.nrows {
		k.sel = make([]int32, k.nrows)
	}
	sel := everyRow[:k.nrows]
	for i := range t.prog.cmps {
		sel = k.compare(k.sel, sel, &t.prog.cmps[i])
	}
	if t.bound != nil {
		n := len(sel)
		sel = k.compare(k.sel, sel, t.bound)
		t.bounded = n - len(sel)
	}
	if f := t.keys; f != nil {
		n := 0
		if f.Dense != nil {
			n = k.direct(f, sel)
		} else {
			hs := k.seeded(len(sel))
			k.hash(hs, sel, f.Col)
			for i, r := range sel {
				bit := hs[i] >> f.Shift
				k.sel[n], hs[n] = r, hs[i]
				n += int(f.Bits[bit>>6] >> (bit & 63) & 1)
			}
		}
		t.skipped, sel = len(sel)-n, k.sel[:n]
	}
	if p := t.prog; p.residual != nil {
		n := 0
		for i, r := range sel {
			for _, col := range p.resCols {
				k.scratch[col] = k.value(r, col)
			}
			k.sel[n] = r
			if t.keys != nil {
				k.hs[n] = k.hs[i]
			}
			if p.residual.Test(k.scratch) {
				n++
			}
		}
		sel = k.sel[:n]
	}
	return sel
}

// direct writes to k.sel the rows of sel (k.sel itself or not) whose key has a
// build row in f's direct table, and each one's head entry to k.hs, and
// returns how many there are: from an INT or DATE vector one subtraction, one
// bounds check and one load a row; from a FLOAT vector or the bytes, a number
// looked up when it is integral (as tuple.CompareNumber has it, a FLOAT equals
// an integer key within ±2^53 exactly then) and anything else kept out.
func (k *pageKernel) direct(f *core.KeyFilter, sel []int32) int {
	if cap(k.hs) < len(sel) {
		k.hs = make([]uint64, len(sel))
	}
	hs, n := k.hs[:len(sel)], 0
	if kind, vec := k.kinds[f.Col], k.vecs[f.Col]; vec != nil && kind != tuple.KindFloat {
		for _, r := range sel {
			e := int32(0)
			if i := uint64(int64(vec[r]) - f.Base); i < uint64(len(f.Dense)) {
				e = f.Dense[i]
			}
			k.sel[n], hs[n] = r, uint64(e)
			if e != 0 {
				n++
			}
		}
		return n
	}
	for _, r := range sel {
		var kind tuple.Kind
		var bits uint64
		if vec := k.vecs[f.Col]; vec != nil {
			kind, bits = tuple.KindFloat, vec[r]
		} else if b := k.at(r, f.Col); tuple.Kind(b[0]) != tuple.KindString {
			kind, bits = tuple.Kind(b[0]), binary.LittleEndian.Uint64(b[1:])
		}
		e := denseEntry(f, kind, bits)
		k.sel[n], hs[n] = r, uint64(e)
		if e != 0 {
			n++
		}
	}
	return n
}

// denseEntry is f's direct-table entry of the number of kind k with payload
// bits (0 for any other kind, a fractional FLOAT or a NaN).
func denseEntry(f *core.KeyFilter, k tuple.Kind, bits uint64) int32 {
	v := int64(bits)
	switch k {
	case tuple.KindFloat:
		x := math.Float64frombits(bits)
		if !(x >= -1<<53 && x <= 1<<53) || x != math.Trunc(x) {
			return 0
		}
		v = int64(x)
	case tuple.KindInt, tuple.KindDate:
	default:
		return 0
	}
	if i := uint64(v - f.Base); i < uint64(len(f.Dense)) {
		return f.Dense[i]
	}
	return 0
}

// compare writes to sel the rows of from whose column c.col stands to the
// literal as the operator asks (from may be sel itself): a column with a
// vector against a numeric literal in one loop of its pair of kinds, the way
// tuple.Compare would (as floats if either is one); anything else through
// tuple.CompareEncoded. The append is branch-free: the row number is always
// written and the length moves by the outcome.
func (k *pageKernel) compare(sel, from []int32, c *encCmp) []int32 {
	n, vec, litF := 0, k.vecs[c.col], c.lit.AsFloat()
	sel = sel[:len(from)]
	switch {
	case vec == nil || !c.litNum:
		for _, r := range from {
			sel[n] = r
			n += int(c.holds >> (tuple.CompareEncoded(k.at(r, c.col), c.lit) + 1) & 1)
		}
	case k.kinds[c.col] == tuple.KindFloat:
		for _, r := range from {
			sel[n] = r
			n += int(c.holds >> (tuple.Sign(math.Float64frombits(vec[r]), litF) + 1) & 1)
		}
	case c.lit.K == tuple.KindFloat:
		for _, r := range from {
			sel[n] = r
			n += int(c.holds >> (tuple.Sign(float64(int64(vec[r])), litF) + 1) & 1)
		}
	default:
		for _, r := range from {
			sel[n] = r
			n += int(c.holds >> (tuple.Sign(int64(vec[r]), c.lit.I) + 1) & 1)
		}
	}
	return sel[:n]
}
