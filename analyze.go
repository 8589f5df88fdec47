// Table statistics at the public API surface: ANALYZE rebuilds, snapshot
// accessors for shells and tools, and the catalog view the front end plans
// against.
package qpipe

import (
	"qpipe/internal/plan"
	"qpipe/internal/stats"
	"qpipe/internal/storage/heap"
	"qpipe/internal/tuple"
)

// Analyze rebuilds table statistics — row count, per-column min/max and
// distinct-value sketches — from a full heap scan. An empty table name
// analyzes every table. Statistics are otherwise maintained incrementally
// by Load and Insert; ANALYZE exists to recover from a cold start (e.g. an
// embedder that populated storage before this handle existed) and to
// refresh sketches after heavy churn.
func (db *DB) Analyze(table string) error {
	tables := []string{table}
	if table == "" {
		tables = db.mgr.Tables()
	}
	for _, name := range tables {
		t, err := db.mgr.Table(name)
		if err != nil {
			return &UnknownTableError{Table: name}
		}
		acc := stats.NewTable(t.Schema.Len())
		err = t.Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
			acc.AddRow(row)
			return true
		})
		if err != nil {
			return err
		}
		db.stats.Replace(name, acc)
	}
	return nil
}

// ColumnStats describes one column's statistics snapshot. Distinct is a
// sketch-based estimate; Min/Max are exact over the observed rows.
type ColumnStats struct {
	Column   string
	Min, Max Value
	Distinct int64
}

// TableStatistics is a point-in-time statistics snapshot for one table.
type TableStatistics struct {
	Table   string
	Rows    int64
	Columns []ColumnStats
}

// TableStats returns the current statistics snapshot for a table (all-zero
// column entries when no rows have been observed yet).
func (db *DB) TableStats(table string) (*TableStatistics, error) {
	t, err := db.mgr.Table(table)
	if err != nil {
		return nil, &UnknownTableError{Table: table}
	}
	out := &TableStatistics{Table: table}
	snap := db.stats.Snapshot(table)
	if snap == nil {
		snap = &stats.TableStats{Cols: make([]stats.ColStats, t.Schema.Len())}
	}
	out.Rows = snap.Rows
	out.Columns = make([]ColumnStats, t.Schema.Len())
	for i, c := range t.Schema.Cols {
		cs := ColumnStats{Column: c.Name}
		if i < len(snap.Cols) && snap.Cols[i].Seen {
			cs.Min = snap.Cols[i].Min
			cs.Max = snap.Cols[i].Max
			cs.Distinct = int64(snap.Cols[i].NDV + 0.5)
		}
		out.Columns[i] = cs
	}
	return out, nil
}

// accessCatalog is the database as the front end (qpipe/internal/lower)
// plans against it: the storage manager knows the schemas, the indexes and
// the heap's size, the statistics registry estimates a key range.
type accessCatalog struct{ db *DB }

func (c accessCatalog) Schema(table string) (*Schema, error) { return c.db.Schema(table) }

func (c accessCatalog) Stats(table string) *stats.TableStats { return c.db.stats.Snapshot(table) }

func (c accessCatalog) Indexes(table string) []plan.Index {
	ixs := c.db.mgr.Indexes(table)
	if ixs == nil {
		return nil
	}
	out := make([]plan.Index, len(ixs))
	for i, ix := range ixs {
		out[i] = plan.Index{Col: ix.Col, Clustered: ix.Clustered,
			Height: ix.Tree.Height(), Leaves: ix.Tree.NumLeaves()}
	}
	return out
}

func (c accessCatalog) HeapPages(table string) int64 {
	n, _ := c.db.TablePages(table) // an unknown table has no index to prefer
	return n
}

func (c accessCatalog) RangeRows(table string, col int, lo, hi Value) (match, rows float64) {
	return c.db.stats.Snapshot(table).RangeRows(col, lo, hi)
}
