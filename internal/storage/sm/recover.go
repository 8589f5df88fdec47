// Checkpoint and crash recovery.
//
// A checkpoint makes the committed state durable (every heap's tail page
// sealed, buffer pool flushed, every heap file fsynced) and then writes a
// catalog snapshot — table schemas,
// index definitions, and each heap file's exact block count — into the WAL.
// Recovery inverts it:
//
//  1. restore the catalog from the last checkpoint snapshot
//  2. truncate every heap file to its snapshotted block count (discarding
//     any blocks written after the checkpoint — they will be re-created)
//  3. redo, in log order, every transaction whose commit record is in the
//     log after the checkpoint; uncommitted tails are discarded
//  4. rebuild indexes from the recovered heaps
//  5. checkpoint the recovered state
//
// Step 2 is what makes redo trivially idempotent: inserts re-append into
// heaps truncated to the exact pre-redo state (reproducing the logged RIDs,
// because commits hold table locks across append+apply, so per-table log
// order equals apply order), and updates/deletes are idempotent by nature.
package sm

import (
	"errors"
	"fmt"
	"sort"

	"qpipe/internal/storage/btree"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// Checkpoint makes all committed state durable and snapshots the catalog
// into the WAL, letting the log drop segments older than the snapshot.
// No-op without a WAL.
func (m *Manager) Checkpoint() error {
	if m.wal == nil {
		return nil
	}
	m.gate.Lock() // exclude commits: no batch may straddle the snapshot
	defer m.gate.Unlock()
	payload, err := m.snapshotLocked()
	if err != nil {
		return err
	}
	return m.wal.Checkpoint(payload)
}

// snapshotLocked makes every heap durable and returns the catalog snapshot
// that describes it. Caller holds the apply gate exclusively. Tails are
// sealed first: recovery truncates each heap to the block count snapshotted
// here and redoes the inserts logged after it, which reproduces their RIDs
// only if no block below that count takes an insert after this point.
func (m *Manager) snapshotLocked() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.tables))
	for n := range m.tables {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		if err := m.tables[n].Heap.Seal(); err != nil {
			return nil, err
		}
	}
	if err := m.Pool.Flush(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := m.Disk.Sync("tbl:" + n); err != nil {
			return nil, err
		}
	}
	return m.encodeCatalogLocked(names), nil
}

// encodeCatalogLocked serializes the catalog snapshot. Caller holds m.mu
// and the apply gate, so block counts are stable. Layout per table:
//
//	tuple{name, nblocks, clusteredKey, ncols, nunclustered}
//	ncols × tuple{colName, colKind}
//	nunclustered × tuple{colName}
func (m *Manager) encodeCatalogLocked(names []string) []byte {
	b := tuple.Tuple{tuple.I64(int64(len(names)))}.Encode(nil)
	for _, n := range names {
		t := m.tables[n]
		ucols := make([]string, 0, len(t.Unclustered))
		for c := range t.Unclustered {
			ucols = append(ucols, c)
		}
		sortStrings(ucols)
		b = tuple.Tuple{
			tuple.Str(n),
			tuple.I64(int64(m.Disk.NumBlocks("tbl:" + n))),
			tuple.Str(t.ClusteredKey),
			tuple.I64(int64(t.Schema.Len())),
			tuple.I64(int64(len(ucols))),
		}.Encode(b)
		for _, c := range t.Schema.Cols {
			b = tuple.Tuple{tuple.Str(c.Name), tuple.I64(int64(c.Kind))}.Encode(b)
		}
		for _, c := range ucols {
			b = tuple.Tuple{tuple.Str(c)}.Encode(b)
		}
	}
	return b
}

// catalogEntry is one table decoded from a checkpoint snapshot.
type catalogEntry struct {
	name         string
	nblocks      int64
	clusteredKey string
	schema       *tuple.Schema
	unclustered  []string
}

func decodeCatalog(b []byte) ([]catalogEntry, error) {
	hdr, n, err := tuple.Decode(b, 1)
	if err != nil {
		return nil, fmt.Errorf("sm: checkpoint catalog: %w", err)
	}
	b = b[n:]
	entries := make([]catalogEntry, 0, hdr[0].I)
	for i := int64(0); i < hdr[0].I; i++ {
		th, n, err := tuple.Decode(b, 5)
		if err != nil {
			return nil, fmt.Errorf("sm: checkpoint catalog table %d: %w", i, err)
		}
		b = b[n:]
		e := catalogEntry{name: th[0].S, nblocks: th[1].I, clusteredKey: th[2].S}
		cols := make([]tuple.Column, 0, th[3].I)
		for c := int64(0); c < th[3].I; c++ {
			ct, cn, err := tuple.Decode(b, 2)
			if err != nil {
				return nil, fmt.Errorf("sm: checkpoint catalog column: %w", err)
			}
			b = b[cn:]
			cols = append(cols, tuple.Column{Name: ct[0].S, Kind: tuple.Kind(ct[1].I)})
		}
		e.schema = tuple.NewSchema(cols...)
		for c := int64(0); c < th[4].I; c++ {
			ut, un, err := tuple.Decode(b, 1)
			if err != nil {
				return nil, fmt.Errorf("sm: checkpoint catalog index: %w", err)
			}
			b = b[un:]
			e.unclustered = append(e.unclustered, ut[0].S)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// redoTx accumulates one logged transaction's records until its commit.
type redoTx struct {
	order  []string // table touch order
	tables map[string]*txTable
	ddl    []ddlRecord
}

// Recover rebuilds the manager's state from the WAL: catalog from the last
// checkpoint, heaps truncated to their snapshotted lengths, committed
// transactions redone, indexes rebuilt, and a fresh checkpoint taken. Call
// exactly once, on a manager with a WAL attached and no tables registered.
func (m *Manager) Recover() error {
	if m.wal == nil {
		return errors.New("sm: Recover requires a WAL (EnableWAL first)")
	}
	m.mu.Lock()
	if len(m.tables) != 0 {
		m.mu.Unlock()
		return errors.New("sm: Recover on a manager with registered tables")
	}
	m.mu.Unlock()

	after := int64(-1)
	// indexWanted tracks the index set to rebuild: table -> cols; "" key
	// marks the clustered index (stored separately per table).
	clusteredWanted := map[string]string{}
	unclusteredWanted := map[string]map[string]bool{}
	if payload, at, ok := m.wal.Checkpointed(); ok {
		entries, err := decodeCatalog(payload)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := m.Pool.DropFile("tbl:" + e.name); err != nil {
				return fmt.Errorf("sm: recover %q: %w", e.name, err)
			}
			if err := m.Disk.Truncate("tbl:"+e.name, e.nblocks); err != nil {
				return fmt.Errorf("sm: recover %q: %w", e.name, err)
			}
			h, err := reopenHeap(m, e.name, e.schema)
			if err != nil {
				return err
			}
			t := &Table{Name: e.name, Schema: e.schema, Heap: h, Unclustered: make(map[string]*btree.Tree)}
			m.mu.Lock()
			m.tables[e.name] = t
			m.mu.Unlock()
			if e.clusteredKey != "" {
				clusteredWanted[e.name] = e.clusteredKey
			}
			for _, c := range e.unclustered {
				setWanted(unclusteredWanted, e.name, c)
			}
		}
		after = at
	}

	// Redo committed transactions in log order. Record batches are appended
	// atomically, so a begin..commit group is always contiguous; anything
	// after a begin with no commit is an uncommitted tail to discard.
	var cur *redoTx
	err := m.wal.Scan(after, func(r wal.Record) error {
		switch r.Type {
		case wal.TypeBegin:
			cur = &redoTx{tables: make(map[string]*txTable)}
		case wal.TypeCommit:
			if cur == nil {
				return fmt.Errorf("sm: recover: commit at lsn %d with no begin", r.LSN)
			}
			if err := m.applyRedo(cur, clusteredWanted, unclusteredWanted); err != nil {
				return err
			}
			cur = nil
		case wal.TypeCheckpoint:
			// A later checkpoint than the one we started from cannot appear
			// (Checkpointed returns the last), but skipping is harmless.
		default:
			if cur == nil {
				return fmt.Errorf("sm: recover: %s record at lsn %d outside a transaction", r.Type, r.LSN)
			}
			if err := cur.add(m, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Rebuild indexes from the recovered heaps (ghost-free by construction).
	m.mu.RLock()
	names := make([]string, 0, len(m.tables))
	for n := range m.tables {
		names = append(names, n)
	}
	m.mu.RUnlock()
	sortStrings(names)
	for _, n := range names {
		if key, ok := clusteredWanted[n]; ok {
			if err := m.buildClustered(n, key); err != nil {
				return err
			}
		}
		for c := range unclusteredWanted[n] {
			if err := m.buildUnclustered(n, c); err != nil {
				return err
			}
		}
	}
	m.removeStrayFiles(names)
	// Make the recovered state durable and let the log discard what the new
	// snapshot covers — recovery after a crash during THIS checkpoint starts
	// from the previous one and redoes the same work.
	return m.Checkpoint()
}

// reopenHeap rebinds a table's heap to the existing (just truncated) disk
// file, replacing the empty file createTableLocked made.
func reopenHeap(m *Manager, name string, schema *tuple.Schema) (*heap.File, error) {
	return heap.Open(m.Pool, "tbl:"+name, schema)
}

// add decodes one data or DDL record into the pending transaction.
func (rt *redoTx) add(m *Manager, r wal.Record) error {
	table := func(name string) (*txTable, error) {
		if tt, ok := rt.tables[name]; ok {
			return tt, nil
		}
		t, err := m.Table(name)
		if err != nil {
			return nil, fmt.Errorf("sm: recover: %w", err)
		}
		tt := &txTable{t: t, updates: map[heap.RID]tuple.Tuple{}, deletes: map[heap.RID]bool{}}
		rt.tables[name] = tt
		rt.order = append(rt.order, name)
		return tt, nil
	}
	switch r.Type {
	case wal.TypeInsert:
		name, rowBytes, err := decodeInsert(r.Payload)
		if err != nil {
			return err
		}
		tt, err := table(name)
		if err != nil {
			return err
		}
		row, _, err := tuple.Decode(rowBytes, tt.t.Schema.Len())
		if err != nil {
			return fmt.Errorf("sm: recover insert into %q: %w", name, err)
		}
		tt.inserts = append(tt.inserts, row)
	case wal.TypeUpdate:
		name, rid, rowBytes, err := decodeUpdate(r.Payload)
		if err != nil {
			return err
		}
		tt, err := table(name)
		if err != nil {
			return err
		}
		row, _, err := tuple.Decode(rowBytes, tt.t.Schema.Len())
		if err != nil {
			return fmt.Errorf("sm: recover update of %q: %w", name, err)
		}
		tt.updates[rid] = row
	case wal.TypeDelete:
		name, rid, err := decodeDelete(r.Payload)
		if err != nil {
			return err
		}
		tt, err := table(name)
		if err != nil {
			return err
		}
		tt.deletes[rid] = true
	case wal.TypeDDL:
		rec, err := decodeDDL(r.Payload)
		if err != nil {
			return err
		}
		rt.ddl = append(rt.ddl, rec)
	default:
		return fmt.Errorf("sm: recover: unexpected %s record at lsn %d", r.Type, r.LSN)
	}
	return nil
}

// applyRedo applies one committed transaction: DDL first (a transaction is
// either pure DDL or pure data in this engine, but order is defined anyway),
// then the data net effect through the same applyTable commits use.
func (m *Manager) applyRedo(rt *redoTx, clusteredWanted map[string]string, unclusteredWanted map[string]map[string]bool) error {
	for _, d := range rt.ddl {
		switch d.kind {
		case ddlKindTable:
			m.mu.Lock()
			if _, ok := m.tables[d.table]; ok {
				m.mu.Unlock()
				return fmt.Errorf("sm: recover: table %q created twice", d.table)
			}
			m.createTableLocked(d.table, d.schema)
			m.mu.Unlock()
		case ddlKindIndex:
			// Note the definition; the index itself is rebuilt once, after
			// all redo, from the final heap.
			if d.clustered {
				clusteredWanted[d.table] = d.col
			} else {
				setWanted(unclusteredWanted, d.table, d.col)
			}
		}
	}
	for _, name := range rt.order {
		if err := m.applyTable(rt.tables[name]); err != nil {
			return fmt.Errorf("sm: recover redo on %q: %w", name, err)
		}
	}
	return nil
}

func setWanted(m map[string]map[string]bool, table, col string) {
	if m[table] == nil {
		m[table] = make(map[string]bool)
	}
	m[table][col] = true
}

// removeStrayFiles deletes data/index/temp files that no recovered table
// references — leftovers of uncommitted work (a heap created by a CREATE
// TABLE whose commit never became durable, spill files, stale indexes).
func (m *Manager) removeStrayFiles(tables []string) {
	known := make(map[string]bool, len(tables)*2)
	m.mu.RLock()
	for _, n := range tables {
		known["tbl:"+n] = true
		t := m.tables[n]
		if t.Clustered != nil {
			known["cix:"+n] = true
		}
		for c := range t.Unclustered {
			known["uix:"+n+":"+c] = true
		}
	}
	m.mu.RUnlock()
	for _, prefix := range []string{"tbl:", "cix:", "uix:", "tmp:"} {
		for _, f := range m.Disk.FilesWithPrefix(prefix) {
			if !known[f] {
				m.DropTemp(f)
			}
		}
	}
}

func sortStrings(s []string) { sort.Strings(s) }
