// Package sm is the storage-manager facade: it owns the simulated disk, the
// buffer pool, the lock manager and a catalog of tables with their access
// methods (heap file, optional clustered B+tree, any number of unclustered
// B+trees). This is the layer that stands in for BerkeleyDB in the paper's
// prototype ("calls to data access methods are wrappers for the underlying
// storage manager", §4.4): both execution engines — QPipe and the Volcano
// comparator — run on top of it.
package sm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qpipe/internal/storage/btree"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// Table bundles one relation's schema and access methods.
type Table struct {
	Name   string
	Schema *tuple.Schema
	Heap   *heap.File

	// Clustered, when non-nil, is a B+tree whose leaves hold the full
	// tuples in key order; ClusteredKey names the key column.
	Clustered    *btree.Tree
	ClusteredKey string

	// Unclustered maps an indexed column name to a B+tree whose payloads
	// are encoded heap RIDs.
	Unclustered map[string]*btree.Tree

	// commitSeq counts committed transactions that touched this table — the
	// OSP snapshot fence. A scan that must be snapshot-consistent records it
	// at start and checks it at end; query-level S locks make a change
	// mid-scan impossible, and the check pins that.
	commitSeq atomic.Int64
}

// CommitSeq returns the table's committed-transaction counter.
func (t *Table) CommitSeq() int64 { return t.commitSeq.Load() }

// indexRow enters a row just appended at rid into every index the table
// has, clustered and unclustered alike: the one place a new row reaches the
// trees, so none can fall behind the heap. The caller holds the table X
// lock.
func (t *Table) indexRow(rid heap.RID, row tuple.Tuple) error {
	if t.Clustered != nil {
		ix := t.Schema.ColIndex(t.ClusteredKey)
		if ix < 0 {
			return fmt.Errorf("sm: table %q: clustered key column %q unknown", t.Name, t.ClusteredKey)
		}
		if err := t.Clustered.Insert(row[ix], row.Encode(nil)); err != nil {
			return err
		}
	}
	for col, tr := range t.Unclustered {
		if err := tr.Insert(row[t.Schema.MustColIndex(col)], EncodeRID(rid)); err != nil {
			return err
		}
	}
	return nil
}

// ridPayloadLen is the length of every EncodeRID payload.
var ridPayloadLen = len(EncodeRID(heap.RID{}))

// checkIndexFit reports whether indexRow's (or an update's) index entries
// for the row can be stored — what commit validation asks before logging.
func (t *Table) checkIndexFit(row tuple.Tuple) error {
	if t.Clustered != nil {
		if ix := t.Schema.ColIndex(t.ClusteredKey); ix >= 0 && !t.Clustered.Fits(row[ix], row.EncodedSize()) {
			return fmt.Errorf("row of %d bytes exceeds half a clustered-index node", row.EncodedSize())
		}
	}
	for col, tr := range t.Unclustered {
		if !tr.Fits(row[t.Schema.MustColIndex(col)], ridPayloadLen) {
			return fmt.Errorf("key of column %q exceeds half an index node", col)
		}
	}
	return nil
}

// Manager is the storage manager.
type Manager struct {
	Disk  *disk.Disk
	Pool  *buffer.Pool
	Locks *lock.Manager

	mu     sync.RWMutex
	tables map[string]*Table
	// tempSeq numbers temporary spill files (sort runs, materialized
	// buffers) so names never collide.
	tempSeq int64

	// wal, when non-nil, makes every catalog and data mutation durable
	// (EnableWAL). Engine-level tests leave it nil — a purely in-memory
	// database pays no logging cost.
	wal  *wal.Log
	txid atomic.Int64

	// gate orders commits against checkpoints: a commit holds it shared from
	// its WAL append through its heap apply; a checkpoint holds it exclusive
	// while snapshotting. No transaction batch can straddle a checkpoint
	// record, so "redo everything after the checkpoint LSN" is exact.
	// Lock order: gate before mu.
	gate sync.RWMutex
}

// Config sizes a storage manager.
type Config struct {
	Disk      disk.Config
	PoolPages int // buffer-pool capacity in pages
}

// New creates a storage manager with a fresh disk and pool.
func New(cfg Config) *Manager {
	d := disk.New(cfg.Disk)
	return &Manager{
		Disk:   d,
		Pool:   buffer.NewPool(d, cfg.PoolPages, nil),
		Locks:  lock.NewManager(),
		tables: make(map[string]*Table),
	}
}

// NewSharedDisk creates a manager with its own pool and locks over an
// existing disk: a second view of the same data with nothing cached, and
// what a reopened database recovers into.
func NewSharedDisk(d *disk.Disk, poolPages int) *Manager {
	return &Manager{
		Disk:   d,
		Pool:   buffer.NewPool(d, poolPages, nil),
		Locks:  lock.NewManager(),
		tables: make(map[string]*Table),
	}
}

// EnableWAL attaches a write-ahead log: from here on, DDL, loads and
// transaction commits are logged (and flushed) before they mutate the
// catalog or heaps. Call before any tables exist, or after Recover.
func (m *Manager) EnableWAL(l *wal.Log) { m.wal = l }

// WAL returns the attached log (nil when durability is off).
func (m *Manager) WAL() *wal.Log { return m.wal }

// logAutocommit appends a single-statement transaction (begin, the given
// entries, commit) to the WAL and flushes it. Callers hold the apply gate
// (shared) across this call and the mutation it precedes.
func (m *Manager) logAutocommit(entries []wal.Entry) error {
	if m.wal == nil {
		return nil
	}
	id := m.txid.Add(1)
	batch := make([]wal.Entry, 0, len(entries)+2)
	batch = append(batch, wal.Entry{Type: wal.TypeBegin, Payload: encodeBegin(id)})
	batch = append(batch, entries...)
	batch = append(batch, wal.Entry{Type: wal.TypeCommit, Payload: encodeBegin(id)})
	_, end, err := m.wal.Append(batch)
	if err != nil {
		return err
	}
	return m.wal.Flush(end)
}

// CreateTable registers a new table backed by a fresh heap file. With a WAL
// attached the DDL is logged (and flushed) first.
func (m *Manager) CreateTable(name string, schema *tuple.Schema) (*Table, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[name]; ok {
		return nil, fmt.Errorf("sm: table %q already exists", name)
	}
	if err := m.logAutocommit([]wal.Entry{{Type: wal.TypeDDL, Payload: encodeDDLTable(name, schema)}}); err != nil {
		return nil, err
	}
	return m.createTableLocked(name, schema), nil
}

// createTableLocked is CreateTable minus logging and locking — the shared
// path for user DDL and recovery redo. Caller holds m.mu.
func (m *Manager) createTableLocked(name string, schema *tuple.Schema) *Table {
	t := &Table{
		Name:        name,
		Schema:      schema,
		Heap:        heap.Create(m.Pool, "tbl:"+name, schema),
		Unclustered: make(map[string]*btree.Tree),
	}
	m.tables[name] = t
	return t
}

// AttachTable registers a table backed by existing files on a shared disk
// (second engine opening data loaded by the first).
func (m *Manager) AttachTable(name string, schema *tuple.Schema) (*Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[name]; ok {
		return nil, fmt.Errorf("sm: table %q already attached", name)
	}
	h, err := heap.Open(m.Pool, "tbl:"+name, schema)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, Heap: h, Unclustered: make(map[string]*btree.Tree)}
	if m.Disk.Exists("cix:" + name) {
		tr, err := btree.Open(m.Pool, "cix:"+name)
		if err != nil {
			return nil, err
		}
		t.Clustered = tr
	}
	m.tables[name] = t
	return t, nil
}

// AttachClusteredKey records the clustered key column after AttachTable
// (file metadata does not store column names).
func (m *Manager) AttachClusteredKey(table, col string) error {
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	if t.Clustered == nil {
		return fmt.Errorf("sm: table %q has no clustered index", table)
	}
	m.setIndex(t, Index{Col: col, Clustered: true, Tree: t.Clustered})
	return nil
}

// AttachUnclustered opens an existing unclustered index on a shared disk.
func (m *Manager) AttachUnclustered(table, col string) error {
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	name := "uix:" + table + ":" + col
	if !m.Disk.Exists(name) {
		return fmt.Errorf("sm: no unclustered index file %q", name)
	}
	tr, err := btree.Open(m.Pool, name)
	if err != nil {
		return err
	}
	m.setIndex(t, Index{Col: col, Tree: tr})
	return nil
}

// Index names one B+tree of a table.
type Index struct {
	Col       string
	Clustered bool
	Tree      *btree.Tree
}

// setIndex publishes a tree as an index of t. It happens under mu because
// planning lists a table's indexes (Indexes) beside a CREATE INDEX, without
// the table lock that orders index builds and scans.
func (m *Manager) setIndex(t *Table, ix Index) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ix.Clustered {
		t.Clustered, t.ClusteredKey = ix.Tree, ix.Col
	} else {
		t.Unclustered[ix.Col] = ix.Tree
	}
}

// Indexes lists the table's indexes, the clustered one first and the
// unclustered ones by column name; nil for a table that has none (or is
// unknown), at the cost of a map lookup.
func (m *Manager) Indexes(table string) []Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t := m.tables[table]
	if t == nil || (t.Clustered == nil && len(t.Unclustered) == 0) {
		return nil
	}
	out := make([]Index, 0, 1+len(t.Unclustered))
	if t.Clustered != nil && t.ClusteredKey != "" {
		out = append(out, Index{Col: t.ClusteredKey, Clustered: true, Tree: t.Clustered})
	}
	for col, tr := range t.Unclustered {
		out = append(out, Index{Col: col, Tree: tr})
	}
	unclustered := out[len(out)-len(t.Unclustered):]
	sort.Slice(unclustered, func(i, j int) bool { return unclustered[i].Col < unclustered[j].Col })
	return out
}

// Table looks up a registered table.
func (m *Manager) Table(name string) (*Table, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("sm: unknown table %q", name)
	}
	return t, nil
}

// MustTable is Table but panics; for the fixed benchmark plans.
func (m *Manager) MustTable(name string) *Table {
	t, err := m.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Tables returns the registered table names, sorted.
func (m *Manager) Tables() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.tables))
	for n := range m.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Load bulk-appends tuples into the table's heap and syncs. With a WAL
// attached, the load is one logged transaction (committed before the heap
// is touched, like any other write). The caller is responsible for
// excluding concurrent readers — the facade takes the table X lock.
func (m *Manager) Load(table string, rows []tuple.Tuple) error {
	if m.wal != nil {
		tx := m.Begin()
		for _, r := range rows {
			if err := tx.StageInsert(context.Background(), table, r); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit(context.Background())
	}
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		rid, err := t.Heap.Append(r)
		if err != nil {
			return err
		}
		if err := t.indexRow(rid, r); err != nil {
			return err
		}
	}
	if err := t.Heap.Sync(); err != nil {
		return err
	}
	t.commitSeq.Add(1)
	return nil
}

// Insert runs a single-row autocommit transaction: the row is logged,
// flushed, applied and index-maintained, with the table X lock taken and
// released internally.
func (m *Manager) Insert(table string, row tuple.Tuple) error {
	tx := m.Begin()
	if err := tx.StageInsert(context.Background(), table, row); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit(context.Background())
}

// BuildClustered builds a clustered B+tree over the table: all tuples sorted
// on keyCol, leaves holding full encoded tuples. (Real systems store the
// heap itself sorted; a clustered B+tree gives the same key-ordered,
// page-granular access path the experiments need.)
func (m *Manager) BuildClustered(table, keyCol string) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.logAutocommit([]wal.Entry{{Type: wal.TypeDDL, Payload: encodeDDLIndex(table, keyCol, true)}}); err != nil {
		return err
	}
	return m.buildClustered(table, keyCol)
}

func (m *Manager) buildClustered(table, keyCol string) error {
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	ix := t.Schema.MustColIndex(keyCol)
	var items []btree.Item
	err = t.Heap.Scan(func(_ heap.RID, row tuple.Tuple) bool {
		items = append(items, btree.Item{Key: row[ix], Payload: row.Encode(nil)})
		return true
	})
	if err != nil {
		return err
	}
	sort.SliceStable(items, func(i, j int) bool {
		return tuple.Compare(items[i].Key, items[j].Key) < 0
	})
	tr, err := btree.Create(m.Pool, "cix:"+table)
	if err != nil {
		return err
	}
	if err := tr.BulkLoad(items, 1.0); err != nil {
		return err
	}
	m.setIndex(t, Index{Col: keyCol, Clustered: true, Tree: tr})
	// Flush: other managers attaching over the same disk read the tree from
	// the device.
	return m.Pool.Flush()
}

// BuildUnclustered builds an unclustered B+tree mapping keyCol values to
// heap RIDs.
func (m *Manager) BuildUnclustered(table, keyCol string) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if err := m.logAutocommit([]wal.Entry{{Type: wal.TypeDDL, Payload: encodeDDLIndex(table, keyCol, false)}}); err != nil {
		return err
	}
	return m.buildUnclustered(table, keyCol)
}

func (m *Manager) buildUnclustered(table, keyCol string) error {
	t, err := m.Table(table)
	if err != nil {
		return err
	}
	ix := t.Schema.MustColIndex(keyCol)
	var items []btree.Item
	err = t.Heap.Scan(func(rid heap.RID, row tuple.Tuple) bool {
		items = append(items, btree.Item{Key: row[ix], Payload: EncodeRID(rid)})
		return true
	})
	if err != nil {
		return err
	}
	sort.SliceStable(items, func(i, j int) bool {
		return tuple.Compare(items[i].Key, items[j].Key) < 0
	})
	tr, err := btree.Create(m.Pool, "uix:"+table+":"+keyCol)
	if err != nil {
		return err
	}
	if err := tr.BulkLoad(items, 1.0); err != nil {
		return err
	}
	m.setIndex(t, Index{Col: keyCol, Tree: tr})
	return m.Pool.Flush()
}

// TempName reserves a unique name for a temporary spill file.
func (m *Manager) TempName(prefix string) string {
	m.mu.Lock()
	m.tempSeq++
	n := m.tempSeq
	m.mu.Unlock()
	return fmt.Sprintf("tmp:%s:%d", prefix, n)
}

// DropTemp removes a temporary file (or, at recovery, a stray one) and what
// the pool holds of it.
func (m *Manager) DropTemp(name string) {
	// A frame a reader still pins — DropFile's only error — is at worst space
	// until LRU reaches it: nothing reads a removed file, and one created
	// over the name drops it again.
	_ = m.Pool.DropFile(name)
	m.Disk.Remove(name)
}

// EncodeRID encodes a heap RID as a B+tree payload.
func EncodeRID(r heap.RID) []byte {
	return tuple.Tuple{tuple.I64(r.Page), tuple.I64(int64(r.Slot))}.Encode(nil)
}

// DecodeRID reverses EncodeRID.
func DecodeRID(b []byte) (heap.RID, error) {
	t, _, err := tuple.Decode(b, 2)
	if err != nil {
		return heap.RID{}, err
	}
	return heap.RID{Page: t[0].I, Slot: int(t[1].I)}, nil
}
