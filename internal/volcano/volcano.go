// Package volcano implements a conventional "one-query, many-operators"
// iterator-model execution engine (Graefe's Volcano [15], the design the
// paper's §4.1 describes) over the same storage manager as QPipe. It stands
// in for the unnamed commercial "DBMS X" in the experiments: queries
// execute independently in their caller's goroutine, share nothing but the
// buffer pool, and evaluate plans tuple-at-a-time through Open/Next/Close
// iterators. Sharing no execution code with the µEngines is what makes it
// the oracle the engine's answers are compared against.
package volcano

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/page"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// Iterator is the classic Volcano operator interface.
type Iterator interface {
	// Open prepares the iterator (recursively opening children).
	Open() error
	// Next produces the next tuple; ok=false at end of stream.
	Next() (tuple.Tuple, bool, error)
	// Close releases resources (recursively).
	Close() error
}

// Engine executes plans iterator-style, one query per calling goroutine.
type Engine struct {
	SM *sm.Manager
}

// New creates a Volcano engine over the storage manager.
func New(mgr *sm.Manager) *Engine { return &Engine{SM: mgr} }

// Build compiles a plan into an iterator tree.
func (e *Engine) Build(ctx context.Context, p plan.Node) (Iterator, error) {
	switch n := p.(type) {
	case *plan.TableScan:
		tb, err := e.SM.Table(n.Table)
		if err != nil {
			return nil, err
		}
		return &scanIter{ctx: ctx, eng: e, tb: tb, node: n}, nil
	case *plan.IndexScan:
		tb, err := e.SM.Table(n.Table)
		if err != nil {
			return nil, err
		}
		return &indexIter{ctx: ctx, eng: e, tb: tb, node: n}, nil
	case *plan.Filter:
		child, err := e.Build(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &filterIter{child: child, pred: n.Pred}, nil
	case *plan.Project:
		child, err := e.Build(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, exprs: n.Exprs}, nil
	case *plan.Sort:
		child, err := e.Build(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &sortIter{eng: e, child: child, keys: n.Keys, desc: n.Desc, limit: n.Limit, ncols: n.Schema().Len()}, nil
	case *plan.MergeJoin:
		l, err := e.Build(ctx, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Build(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		return &mergeJoinIter{l: l, r: r, lkey: n.LKey, rkey: n.RKey}, nil
	case *plan.HashJoin:
		l, err := e.Build(ctx, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Build(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{build: l, probe: r, lkey: n.LKey, rkey: n.RKey}, nil
	case *plan.NLJoin:
		l, err := e.Build(ctx, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Build(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		return &nlJoinIter{outer: l, inner: r, pred: n.Pred}, nil
	case *plan.Aggregate:
		child, err := e.Build(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &aggIter{child: child, specs: n.Specs}, nil
	case *plan.GroupBy:
		child, err := e.Build(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &groupByIter{child: child, keys: n.Keys, specs: n.Specs}, nil
	case *plan.Update:
		return &updateIter{ctx: ctx, eng: e, node: n}, nil
	default:
		return nil, fmt.Errorf("volcano: unsupported node %T", p)
	}
}

// Run executes the plan, returning all result tuples.
func (e *Engine) Run(ctx context.Context, p plan.Node) ([]tuple.Tuple, error) {
	it, err := e.Build(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	var out []tuple.Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			it.Close()
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, it.Close()
}

// RunDiscard executes the plan, discarding results (the experiments' mode)
// and returning the row count.
func (e *Engine) RunDiscard(ctx context.Context, p plan.Node) (int64, error) {
	it, err := e.Build(ctx, p)
	if err != nil {
		return 0, err
	}
	if err := it.Open(); err != nil {
		it.Close()
		return 0, err
	}
	var n int64
	for {
		_, ok, err := it.Next()
		if err != nil {
			it.Close()
			return n, err
		}
		if !ok {
			break
		}
		n++
	}
	return n, it.Close()
}

// ---- Scans ------------------------------------------------------------------

type scanIter struct {
	ctx    context.Context
	eng    *Engine
	tb     *sm.Table
	node   *plan.TableScan
	pno    int64
	npages int64
	batch  []tuple.Tuple
	i      int
	locked bool
}

func (s *scanIter) Open() error {
	if err := s.eng.SM.Locks.Lock(s.ctx, s.node.Table, lock.Shared); err != nil {
		return err
	}
	s.locked = true
	s.npages = s.tb.Heap.NumPages()
	s.pno, s.i, s.batch = 0, 0, nil
	return nil
}

func (s *scanIter) Next() (tuple.Tuple, bool, error) {
	for {
		for s.i < len(s.batch) {
			t := s.batch[s.i]
			s.i++
			if s.node.Filter != nil && !s.node.Filter.Test(t) {
				continue
			}
			if s.node.Project != nil {
				t = t.Project(s.node.Project)
			}
			return t, true, nil
		}
		if s.pno >= s.npages {
			return nil, false, nil
		}
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
		rows, err := s.tb.Heap.ReadPage(s.pno)
		if err != nil {
			return nil, false, err
		}
		s.pno++
		s.batch, s.i = rows, 0
	}
}

func (s *scanIter) Close() error {
	if s.locked {
		s.eng.SM.Locks.Unlock(s.node.Table, lock.Shared)
		s.locked = false
	}
	return nil
}

type indexIter struct {
	ctx  context.Context
	eng  *Engine
	tb   *sm.Table
	node *plan.IndexScan

	rows   []tuple.Tuple
	i      int
	locked bool
}

func (s *indexIter) Open() error {
	if err := s.eng.SM.Locks.Lock(s.ctx, s.node.Table, lock.Shared); err != nil {
		return err
	}
	s.locked = true
	s.rows, s.i = nil, 0
	n := s.node
	ncols := s.tb.Schema.Len()
	if n.Clustered {
		tr := s.tb.Clustered
		if tr == nil {
			return fmt.Errorf("volcano: no clustered index on %q", n.Table)
		}
		var derr error
		err := tr.Range(n.Lo, n.Hi, func(_ tuple.Value, payload []byte) bool {
			row, _, e := tuple.Decode(payload, ncols)
			if e != nil {
				derr = e
				return false
			}
			s.rows = append(s.rows, row)
			return true
		})
		if err != nil {
			return err
		}
		return derr
	}
	tr := s.tb.Unclustered[n.Col]
	if tr == nil {
		return fmt.Errorf("volcano: no unclustered index on %q.%q", n.Table, n.Col)
	}
	// Probe, then fetch in page order. The index is maintained lazily: an
	// entry whose row is tombstoned, or whose row no longer carries the
	// entry's key, is a ghost of an earlier version and yields nothing.
	type probe struct {
		rid heap.RID
		key tuple.Value
	}
	var probes []probe
	var derr error
	err := tr.Range(n.Lo, n.Hi, func(key tuple.Value, payload []byte) bool {
		rid, e := sm.DecodeRID(payload)
		if e != nil {
			derr = e
			return false
		}
		probes = append(probes, probe{rid, key})
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	if !n.Ordered {
		sort.Slice(probes, func(i, j int) bool { return probes[i].rid.Less(probes[j].rid) })
	}
	keyIx := s.tb.Schema.MustColIndex(n.Col)
	for _, p := range probes {
		row, err := s.tb.Heap.ReadTuple(p.rid)
		if errors.Is(err, heap.ErrDeleted) {
			continue
		}
		if err != nil {
			return err
		}
		if tuple.Compare(row[keyIx], p.key) == 0 {
			s.rows = append(s.rows, row)
		}
	}
	return nil
}

func (s *indexIter) Next() (tuple.Tuple, bool, error) {
	n := s.node
	for s.i < len(s.rows) {
		t := s.rows[s.i]
		s.i++
		if n.Filter != nil && !n.Filter.Test(t) {
			continue
		}
		if n.Project != nil {
			t = t.Project(n.Project)
		}
		return t, true, nil
	}
	return nil, false, nil
}

func (s *indexIter) Close() error {
	if s.locked {
		s.eng.SM.Locks.Unlock(s.node.Table, lock.Shared)
		s.locked = false
	}
	s.rows = nil
	return nil
}

// ---- Unary ------------------------------------------------------------------

type filterIter struct {
	child Iterator
	pred  expr.Pred
}

func (f *filterIter) Open() error { return f.child.Open() }

func (f *filterIter) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.pred.Test(t) {
			return t, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.child.Close() }

type projectIter struct {
	child Iterator
	exprs []expr.Expr
}

func (p *projectIter) Open() error { return p.child.Open() }

func (p *projectIter) Next() (tuple.Tuple, bool, error) {
	t, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(tuple.Tuple, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = e.Eval(t)
	}
	return out, true, nil
}

func (p *projectIter) Close() error { return p.child.Close() }

// sortIter is an external sort: it materializes the sorted result to a
// temp spill file and streams it back, charging the same write+read I/O
// QPipe's sort µEngine pays — keeping the two engines' cost models
// comparable (both the paper's systems did disk-based sorts).
type sortIter struct {
	eng   *Engine
	child Iterator
	keys  []int
	desc  bool
	limit int64 // > 0: a Top-N — the whole input sorted, then truncated

	file   string
	ncols  int
	pno    int64
	npages int64
	batch  []tuple.Tuple
	i      int
}

func (s *sortIter) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	var rows []tuple.Tuple
	for {
		t, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, t)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		c := tuple.CompareAt(rows[i], rows[j], s.keys)
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	if s.limit > 0 && int64(len(rows)) > s.limit {
		rows = rows[:s.limit]
	}
	// Materialize the sorted run and stream it back from "disk".
	s.file = s.eng.SM.TempName("vsort")
	d := s.eng.SM.Disk
	d.Create(s.file)
	pg := page.New(d.BlockSize())
	var enc []byte
	for _, t := range rows {
		if len(t) > s.ncols {
			s.ncols = len(t)
		}
		enc = t.Encode(enc[:0])
		if !pg.HasRoomFor(len(enc)) {
			if _, err := d.Append(s.file, pg.Bytes()); err != nil {
				return err
			}
			pg = page.New(d.BlockSize())
		}
		if _, err := pg.Insert(enc); err != nil {
			return fmt.Errorf("volcano: sort tuple exceeds page: %w", err)
		}
	}
	if pg.NumSlots() > 0 {
		if _, err := d.Append(s.file, pg.Bytes()); err != nil {
			return err
		}
	}
	s.npages = int64(d.NumBlocks(s.file))
	s.pno, s.i, s.batch = 0, 0, nil
	return nil
}

func (s *sortIter) Next() (tuple.Tuple, bool, error) {
	for {
		if s.i < len(s.batch) {
			t := s.batch[s.i]
			s.i++
			return t, true, nil
		}
		if s.pno >= s.npages {
			return nil, false, nil
		}
		raw, err := s.eng.SM.Disk.Read(s.file, s.pno)
		if err != nil {
			return nil, false, err
		}
		s.pno++
		s.batch, err = page.FromBytes(raw).Tuples(s.ncols)
		if err != nil {
			return nil, false, err
		}
		s.i = 0
	}
}

func (s *sortIter) Close() error {
	if s.file != "" {
		s.eng.SM.DropTemp(s.file)
		s.file = ""
	}
	return s.child.Close()
}

// ---- Joins ------------------------------------------------------------------

type mergeJoinIter struct {
	l, r       Iterator
	lkey, rkey int

	lt, rt   tuple.Tuple
	lok, rok bool
	lg, rg   []tuple.Tuple
	gi, gj   int
	primed   bool
}

func (m *mergeJoinIter) Open() error {
	if err := m.l.Open(); err != nil {
		return err
	}
	return m.r.Open()
}

func (m *mergeJoinIter) advanceL() error {
	t, ok, err := m.l.Next()
	m.lt, m.lok = t, ok
	return err
}

func (m *mergeJoinIter) advanceR() error {
	t, ok, err := m.r.Next()
	m.rt, m.rok = t, ok
	return err
}

func (m *mergeJoinIter) Next() (tuple.Tuple, bool, error) {
	if !m.primed {
		if err := m.advanceL(); err != nil {
			return nil, false, err
		}
		if err := m.advanceR(); err != nil {
			return nil, false, err
		}
		m.primed = true
	}
	for {
		// Emit pending cross-product of the current duplicate groups.
		if m.gi < len(m.lg) {
			t := tuple.Concat(m.lg[m.gi], m.rg[m.gj])
			m.gj++
			if m.gj >= len(m.rg) {
				m.gj = 0
				m.gi++
			}
			return t, true, nil
		}
		if !m.lok || !m.rok {
			return nil, false, nil
		}
		c := tuple.Compare(m.lt[m.lkey], m.rt[m.rkey])
		if c < 0 {
			if err := m.advanceL(); err != nil {
				return nil, false, err
			}
			continue
		}
		if c > 0 {
			if err := m.advanceR(); err != nil {
				return nil, false, err
			}
			continue
		}
		key := m.lt[m.lkey]
		m.lg, m.rg = nil, nil
		for m.lok && tuple.Equal(m.lt[m.lkey], key) {
			m.lg = append(m.lg, m.lt)
			if err := m.advanceL(); err != nil {
				return nil, false, err
			}
		}
		for m.rok && tuple.Equal(m.rt[m.rkey], key) {
			m.rg = append(m.rg, m.rt)
			if err := m.advanceR(); err != nil {
				return nil, false, err
			}
		}
		m.gi, m.gj = 0, 0
	}
}

func (m *mergeJoinIter) Close() error {
	err1 := m.l.Close()
	err2 := m.r.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type hashJoinIter struct {
	build, probe Iterator
	lkey, rkey   int

	table   map[uint64][]tuple.Tuple
	pending []tuple.Tuple
	pi      int
}

func (h *hashJoinIter) Open() error {
	if err := h.build.Open(); err != nil {
		return err
	}
	if err := h.probe.Open(); err != nil {
		return err
	}
	h.table = make(map[uint64][]tuple.Tuple)
	for {
		t, ok, err := h.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k := tuple.Hash1(t, h.lkey)
		h.table[k] = append(h.table[k], t)
	}
	return nil
}

func (h *hashJoinIter) Next() (tuple.Tuple, bool, error) {
	for {
		if h.pi < len(h.pending) {
			t := h.pending[h.pi]
			h.pi++
			return t, true, nil
		}
		t, ok, err := h.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := tuple.Hash1(t, h.rkey)
		h.pending, h.pi = nil, 0
		for _, b := range h.table[k] {
			if tuple.Equal(b[h.lkey], t[h.rkey]) {
				h.pending = append(h.pending, tuple.Concat(b, t))
			}
		}
	}
}

func (h *hashJoinIter) Close() error {
	h.table = nil
	err1 := h.build.Close()
	err2 := h.probe.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type nlJoinIter struct {
	outer, inner Iterator
	pred         expr.Pred

	innerRows []tuple.Tuple
	cur       tuple.Tuple
	ii        int
	haveOuter bool
}

func (n *nlJoinIter) Open() error {
	if err := n.outer.Open(); err != nil {
		return err
	}
	if err := n.inner.Open(); err != nil {
		return err
	}
	for {
		t, ok, err := n.inner.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n.innerRows = append(n.innerRows, t)
	}
	return nil
}

func (n *nlJoinIter) Next() (tuple.Tuple, bool, error) {
	for {
		if !n.haveOuter {
			t, ok, err := n.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur, n.haveOuter, n.ii = t, true, 0
		}
		for n.ii < len(n.innerRows) {
			joined := tuple.Concat(n.cur, n.innerRows[n.ii])
			n.ii++
			if n.pred == nil || n.pred.Test(joined) {
				return joined, true, nil
			}
		}
		n.haveOuter = false
	}
}

func (n *nlJoinIter) Close() error {
	n.innerRows = nil
	err1 := n.outer.Close()
	err2 := n.inner.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ---- Aggregation -------------------------------------------------------------

type aggIter struct {
	child Iterator
	specs []expr.AggSpec
	row   tuple.Tuple
	done  bool
}

func (a *aggIter) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	states := make([]*expr.AggState, len(a.specs))
	for i, s := range a.specs {
		states[i] = expr.NewAggState(s)
	}
	for {
		t, ok, err := a.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, st := range states {
			st.Add(t)
		}
	}
	a.row = make(tuple.Tuple, len(states))
	for i, st := range states {
		a.row[i] = st.Result()
	}
	a.done = false
	return nil
}

func (a *aggIter) Next() (tuple.Tuple, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true
	return a.row, true, nil
}

func (a *aggIter) Close() error { return a.child.Close() }

type groupByIter struct {
	child Iterator
	keys  []int
	specs []expr.AggSpec
	rows  []tuple.Tuple
	i     int
}

func (g *groupByIter) Open() error {
	if err := g.child.Open(); err != nil {
		return err
	}
	type group struct {
		key    tuple.Tuple
		states []*expr.AggState
	}
	groups := make(map[uint64][]*group)
	for {
		t, ok, err := g.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h := tuple.HashAt(t, g.keys)
		var grp *group
		for _, cand := range groups[h] {
			match := true
			for i, k := range g.keys {
				if !tuple.Equal(cand.key[i], t[k]) {
					match = false
					break
				}
			}
			if match {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = &group{key: t.Project(g.keys), states: make([]*expr.AggState, len(g.specs))}
			for i, s := range g.specs {
				grp.states[i] = expr.NewAggState(s)
			}
			groups[h] = append(groups[h], grp)
		}
		for _, st := range grp.states {
			st.Add(t)
		}
	}
	g.rows, g.i = nil, 0
	for _, bucket := range groups {
		for _, grp := range bucket {
			row := make(tuple.Tuple, 0, len(grp.key)+len(grp.states))
			row = append(row, grp.key...)
			for _, st := range grp.states {
				row = append(row, st.Result())
			}
			g.rows = append(g.rows, row)
		}
	}
	return nil
}

func (g *groupByIter) Next() (tuple.Tuple, bool, error) {
	if g.i >= len(g.rows) {
		return nil, false, nil
	}
	t := g.rows[g.i]
	g.i++
	return t, true, nil
}

func (g *groupByIter) Close() error {
	g.rows = nil
	return g.child.Close()
}

// ---- Update ------------------------------------------------------------------

type updateIter struct {
	ctx  context.Context
	eng  *Engine
	node *plan.Update
	done bool
}

func (u *updateIter) Open() error { return nil }

func (u *updateIter) Next() (tuple.Tuple, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	// One storage-manager transaction for the whole row set: staging takes
	// the table X lock at first touch and Commit releases it, so the rows
	// land atomically. (Locking externally and calling SM.Insert per row
	// would self-deadlock — Insert is itself an autocommit transaction.)
	tx := u.eng.SM.Begin()
	for _, row := range u.node.Rows {
		if err := tx.StageInsert(u.ctx, u.node.Table, row); err != nil {
			tx.Rollback()
			return nil, false, err
		}
	}
	if err := tx.Commit(u.ctx); err != nil {
		return nil, false, err
	}
	return tuple.Tuple{tuple.I64(int64(len(u.node.Rows)))}, true, nil
}

func (u *updateIter) Close() error { return nil }
