// Package stats maintains per-table statistics — row counts, per-column
// min/max bounds and distinct-value sketches — that feed the planner's
// selectivity and cardinality estimates. Statistics are maintained
// incrementally as rows arrive (Load/Insert) and can be rebuilt from a full
// heap scan via ANALYZE. The planner treats them as hints: a stale or
// missing statistic degrades estimate quality, never correctness.
package stats

import (
	"math"
	"math/bits"
	"sync"

	"qpipe/internal/tuple"
)

// sketchWords is the linear-counting bitmap size per column: 512 words =
// 32768 bits (~4 KiB). Linear counting stays accurate up to roughly the
// bitmap size, which comfortably covers the distinct counts the planner
// cares about (join-key NDVs); beyond that the estimate saturates at the
// row count, which is the right planning answer anyway.
const sketchWords = 512

const sketchBits = sketchWords * 64

// colAcc accumulates one column's statistics.
type colAcc struct {
	min, max tuple.Value
	seen     bool
	bitmap   [sketchWords]uint64
}

func (c *colAcc) add(row tuple.Tuple, ix int) {
	v := row[ix]
	if !c.seen || tuple.Compare(v, c.min) < 0 {
		c.min = v
	}
	if !c.seen || tuple.Compare(v, c.max) > 0 {
		c.max = v
	}
	c.seen = true
	h := tuple.Hash1(row, ix) % sketchBits
	c.bitmap[h/64] |= 1 << (h % 64)
}

// ndv returns the linear-counting distinct-value estimate, capped at rows.
func (c *colAcc) ndv(rows int64) float64 {
	if !c.seen || rows == 0 {
		return 0
	}
	ones := 0
	for _, w := range c.bitmap {
		ones += bits.OnesCount64(w)
	}
	zeros := sketchBits - ones
	var est float64
	if zeros == 0 {
		est = float64(rows)
	} else {
		est = -float64(sketchBits) * math.Log(float64(zeros)/float64(sketchBits))
	}
	if est > float64(rows) {
		est = float64(rows)
	}
	if est < 1 {
		est = 1
	}
	return est
}

// Table accumulates statistics for one table. Safe for concurrent use.
type Table struct {
	mu   sync.Mutex
	rows int64
	cols []colAcc
	// snap is the snapshot of the current contents, kept until the next Add:
	// planning asks for one per statement, and counting the sketches costs
	// 512 words per column.
	snap *TableStats
}

// NewTable creates an empty accumulator for a table with ncols columns.
func NewTable(ncols int) *Table {
	return &Table{cols: make([]colAcc, ncols)}
}

// Add folds a batch of rows into the statistics.
func (t *Table) Add(rows []tuple.Tuple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(rows) > 0 {
		t.snap = nil
	}
	for _, r := range rows {
		t.rows++
		n := len(t.cols)
		if len(r) < n {
			n = len(r)
		}
		for i := 0; i < n; i++ {
			t.cols[i].add(r, i)
		}
	}
}

// AddRow folds a single row into the statistics (ANALYZE's heap-scan path).
func (t *Table) AddRow(r tuple.Tuple) {
	t.Add([]tuple.Tuple{r})
}

// ColStats is an immutable per-column statistics snapshot.
type ColStats struct {
	Min, Max tuple.Value
	NDV      float64 // estimated distinct values; 0 when unknown
	Seen     bool    // false: no data observed for this column
}

// TableStats is an immutable per-table statistics snapshot.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// RangeRows estimates how many rows have column col in [lo, hi] (see
// RangeSelectivity), and how many rows there are; 0, 0 when ts is nil or
// does not cover col.
func (ts *TableStats) RangeRows(col int, lo, hi tuple.Value) (match, rows float64) {
	if ts == nil || col >= len(ts.Cols) {
		return 0, 0
	}
	rows = float64(ts.Rows)
	return rows * RangeSelectivity(ts.Cols[col], lo, hi), rows
}

// Snapshot captures the current statistics as an immutable value the
// planner can read without further locking.
func (t *Table) Snapshot() *TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap == nil {
		s := &TableStats{Rows: t.rows, Cols: make([]ColStats, len(t.cols))}
		for i := range t.cols {
			c := &t.cols[i]
			s.Cols[i] = ColStats{Min: c.min, Max: c.max, NDV: c.ndv(t.rows), Seen: c.seen}
		}
		t.snap = s
	}
	return t.snap
}

// Registry tracks statistics for all tables in a database.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{tables: make(map[string]*Table)}
}

// Create registers an empty accumulator for a new table (idempotent).
func (r *Registry) Create(name string, ncols int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[name]; !ok {
		r.tables[name] = NewTable(ncols)
	}
}

// Add folds rows into the named table's statistics; tables not registered
// via Create are ignored (statistics are advisory).
func (r *Registry) Add(name string, rows []tuple.Tuple) {
	r.mu.RLock()
	t := r.tables[name]
	r.mu.RUnlock()
	if t != nil {
		t.Add(rows)
	}
}

// Replace swaps in freshly rebuilt statistics (the ANALYZE path).
func (r *Registry) Replace(name string, t *Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[name] = t
}

// Snapshot returns the named table's statistics, or nil when unknown.
func (r *Registry) Snapshot(name string) *TableStats {
	r.mu.RLock()
	t := r.tables[name]
	r.mu.RUnlock()
	if t == nil {
		return nil
	}
	return t.Snapshot()
}
