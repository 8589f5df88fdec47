// Transactions. The engine uses a no-steal, redo-only protocol: a
// transaction stages its writes in a private overlay (nothing touches the
// heap before commit), and commit logs the net effect as one atomic WAL
// batch — begin, deletes, updates, inserts, commit — flushes it, and only
// then applies to the heap. Recovery therefore never needs undo: anything in
// the log without a commit record is garbage to skip, anything with one is
// redone.
//
// Locking: the transaction takes table X locks as it touches tables and
// holds them through commit — including across the WAL append AND the heap
// apply. That ordering is the recovery invariant: per table, log order
// equals apply order, so redo in log order reproduces the exact same RIDs.
package sm

import (
	"context"
	"fmt"
	"sort"

	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/page"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
)

// Tx is a storage-manager transaction. Not safe for concurrent use by
// multiple goroutines (a session owns its transaction); different
// transactions may run concurrently.
type Tx struct {
	m      *Manager
	id     int64
	writes map[string]*txTable // staged net effect per table
	order  []string            // table touch order (for deterministic logging)
	done   bool
}

// txTable is one table's staged net effect.
type txTable struct {
	t       *Table
	inserts []tuple.Tuple            // staged new rows; nil = retracted
	updates map[heap.RID]tuple.Tuple // rid -> replacement row
	deletes map[heap.RID]bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Tx {
	return &Tx{m: m, id: m.txid.Add(1), writes: make(map[string]*txTable)}
}

// ID returns the transaction's id (WAL begin-record payload).
func (tx *Tx) ID() int64 { return tx.id }

// touch looks up the table, takes its X lock on first touch, and returns the
// staging entry. The lock is held until Commit or Rollback.
func (tx *Tx) touch(ctx context.Context, table string) (*txTable, error) {
	if tx.done {
		return nil, &TxDoneError{}
	}
	if tt, ok := tx.writes[table]; ok {
		return tt, nil
	}
	t, err := tx.m.Table(table)
	if err != nil {
		return nil, err
	}
	if err := tx.m.Locks.Lock(ctx, table, lock.Exclusive); err != nil {
		return nil, err
	}
	tt := &txTable{t: t, updates: make(map[heap.RID]tuple.Tuple), deletes: make(map[heap.RID]bool)}
	tx.writes[table] = tt
	tx.order = append(tx.order, table)
	return tt, nil
}

// Writes reports whether the transaction has staged a write to the table
// (used by sessions to detect reads that would self-deadlock on the
// transaction's own X lock).
func (tx *Tx) Writes(table string) bool {
	_, ok := tx.writes[table]
	return ok
}

// Tables returns the tables the transaction has touched, in first-touch
// order (callers invalidate caches over them after Commit).
func (tx *Tx) Tables() []string {
	out := make([]string, len(tx.order))
	copy(out, tx.order)
	return out
}

// StageInsert stages a new row. It becomes visible at commit; within the
// transaction it is observable through ScanEffective.
func (tx *Tx) StageInsert(ctx context.Context, table string, row tuple.Tuple) error {
	tt, err := tx.touch(ctx, table)
	if err != nil {
		return err
	}
	if got, want := len(row), tt.t.Schema.Len(); got != want {
		return fmt.Errorf("sm: insert into %q: %d values for %d columns", table, got, want)
	}
	tt.inserts = append(tt.inserts, row)
	return nil
}

// insertRID flags a RID as referring to a staged (uncommitted) insert:
// negative page numbers never occur in heaps. Slot indexes into txTable.inserts.
func insertRID(i int) heap.RID { return heap.RID{Page: -1, Slot: i} }

func isInsertRID(r heap.RID) bool { return r.Page < 0 }

// StageUpdate stages a replacement for the row at rid (which the caller
// read either from the heap or from ScanEffective). Clustered tables refuse
// (see ClusteredMutationError).
func (tx *Tx) StageUpdate(ctx context.Context, table string, rid heap.RID, row tuple.Tuple) error {
	tt, err := tx.touch(ctx, table)
	if err != nil {
		return err
	}
	if tt.t.Clustered != nil {
		return &ClusteredMutationError{Table: table}
	}
	if got, want := len(row), tt.t.Schema.Len(); got != want {
		return fmt.Errorf("sm: update of %q: %d values for %d columns", table, got, want)
	}
	if isInsertRID(rid) {
		if rid.Slot < 0 || rid.Slot >= len(tt.inserts) || tt.inserts[rid.Slot] == nil {
			return fmt.Errorf("sm: update of %q: stale staged rid %s", table, rid)
		}
		tt.inserts[rid.Slot] = row
		return nil
	}
	if tt.deletes[rid] {
		return fmt.Errorf("sm: update of %q: rid %s deleted in this transaction", table, rid)
	}
	tt.updates[rid] = row
	return nil
}

// StageDelete stages a deletion of the row at rid.
func (tx *Tx) StageDelete(ctx context.Context, table string, rid heap.RID) error {
	tt, err := tx.touch(ctx, table)
	if err != nil {
		return err
	}
	if tt.t.Clustered != nil {
		return &ClusteredMutationError{Table: table}
	}
	if isInsertRID(rid) {
		if rid.Slot < 0 || rid.Slot >= len(tt.inserts) || tt.inserts[rid.Slot] == nil {
			return fmt.Errorf("sm: delete from %q: stale staged rid %s", table, rid)
		}
		tt.inserts[rid.Slot] = nil // retract: net effect is no row at all
		return nil
	}
	delete(tt.updates, rid) // delete wins over an earlier update
	tt.deletes[rid] = true
	return nil
}

// ScanEffective iterates the table as this transaction sees it: heap rows
// with staged updates substituted and staged deletes skipped, then staged
// inserts (with their synthetic negative-page RIDs, so a later statement in
// the same transaction can update or delete them). Takes the table X lock
// like any other transactional access.
func (tx *Tx) ScanEffective(ctx context.Context, table string, fn func(rid heap.RID, row tuple.Tuple) bool) error {
	tt, err := tx.touch(ctx, table)
	if err != nil {
		return err
	}
	stop := false
	err = tt.t.Heap.Scan(func(rid heap.RID, row tuple.Tuple) bool {
		if tt.deletes[rid] {
			return true
		}
		if repl, ok := tt.updates[rid]; ok {
			row = repl
		}
		if !fn(rid, row) {
			stop = true
			return false
		}
		return true
	})
	if err != nil || stop {
		return err
	}
	for i, row := range tt.inserts {
		if row == nil {
			continue
		}
		if !fn(insertRID(i), row) {
			return nil
		}
	}
	return nil
}

// Rollback discards the staged writes and releases the transaction's locks.
// Nothing reached the heap or the log, so there is nothing to undo. Safe to
// call on a finished transaction (no-op).
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.release()
}

func (tx *Tx) release() {
	for _, name := range tx.order {
		tx.m.Locks.Unlock(name, lock.Exclusive)
	}
}

// Commit logs the transaction's net effect as one atomic WAL batch, flushes
// it (the commit point), then applies it to the heap and indexes. Table X
// locks are held throughout, so per-table log order equals apply order.
// Whatever can make the apply fail is checked first (validate): a
// transaction that cannot be applied must not be logged as committed, since
// redo would fail on it the same way. A validation or WAL error aborts
// cleanly (nothing logged or nothing applied); what is left to fail after
// the flush is I/O, and then the durable state is already correct —
// recovery redoes the transaction.
func (tx *Tx) Commit(ctx context.Context) error {
	if tx.done {
		return &TxDoneError{}
	}
	tx.done = true
	defer tx.release()
	empty := true
	for _, name := range tx.order {
		if tx.writes[name].dirty() {
			empty = false
			break
		}
	}
	if empty {
		return nil
	}
	// The apply gate: commits hold it shared from the WAL append through the
	// heap apply, so a checkpoint (exclusive) can never capture a snapshot
	// with a logged-but-unapplied transaction in flight.
	tx.m.gate.RLock()
	defer tx.m.gate.RUnlock()
	for _, name := range tx.order {
		if err := tx.writes[name].validate(page.MaxPayload(tx.m.Disk.BlockSize())); err != nil {
			return err
		}
	}
	if tx.m.wal != nil {
		entries := tx.entries()
		_, end, err := tx.m.wal.Append(entries)
		if err != nil {
			return err
		}
		if err := tx.m.wal.Flush(end); err != nil {
			return err
		}
	}
	for _, name := range tx.order {
		if err := tx.m.applyTable(tx.writes[name]); err != nil {
			return fmt.Errorf("sm: commit apply on %q: %w (durable state is consistent; restart recovers)", name, err)
		}
	}
	return nil
}

func (tt *txTable) dirty() bool {
	if len(tt.updates) > 0 || len(tt.deletes) > 0 {
		return true
	}
	for _, row := range tt.inserts {
		if row != nil {
			return true
		}
	}
	return false
}

// validate checks that applyTable will succeed on the staged net effect:
// per heap page, the staged deletes and then the updates in apply order fit
// (page.CheckMutations, the arithmetic ReplaceAt's repack uses), and every
// insert fits an empty page. The caller holds the table X lock, so the
// pages cannot change between this check and the apply.
func (tt *txTable) validate(maxRow int) error {
	type mutations struct {
		deletes []int
		updates []page.Replacement
	}
	pages := make(map[int64]*mutations)
	at := func(pno int64) *mutations {
		if pages[pno] == nil {
			pages[pno] = &mutations{}
		}
		return pages[pno]
	}
	for rid := range tt.deletes {
		pm := at(rid.Page)
		pm.deletes = append(pm.deletes, rid.Slot)
	}
	for _, rid := range sortedUpdateRIDs(tt.updates) {
		pm := at(rid.Page)
		pm.updates = append(pm.updates, page.Replacement{Slot: rid.Slot, Len: tt.updates[rid].EncodedSize()})
	}
	for pno, pm := range pages {
		if err := tt.t.Heap.CheckMutations(pno, pm.deletes, pm.updates); err != nil {
			return &CommitRejectedError{Table: tt.t.Name, Page: pno, Err: err}
		}
	}
	for _, row := range tt.inserts {
		if row == nil {
			continue // retracted in the transaction
		}
		if n := row.EncodedSize(); n > maxRow {
			return &CommitRejectedError{Table: tt.t.Name, Page: -1,
				Err: fmt.Errorf("row of %d bytes exceeds a page's %d", n, maxRow)}
		}
		if err := tt.t.checkIndexFit(row); err != nil {
			return &CommitRejectedError{Table: tt.t.Name, Page: -1, Err: err}
		}
	}
	for _, row := range tt.updates {
		if err := tt.t.checkIndexFit(row); err != nil {
			return &CommitRejectedError{Table: tt.t.Name, Page: -1, Err: err}
		}
	}
	return nil
}

// entries builds the transaction's WAL batch: begin, then per table (touch
// order) deletes, updates, inserts — all in deterministic order — then
// commit.
func (tx *Tx) entries() []wal.Entry {
	entries := []wal.Entry{{Type: wal.TypeBegin, Payload: encodeBegin(tx.id)}}
	for _, name := range tx.order {
		tt := tx.writes[name]
		for _, rid := range sortedRIDs(tt.deletes) {
			entries = append(entries, wal.Entry{Type: wal.TypeDelete, Payload: encodeDelete(name, rid)})
		}
		for _, rid := range sortedUpdateRIDs(tt.updates) {
			entries = append(entries, wal.Entry{Type: wal.TypeUpdate, Payload: encodeUpdate(name, rid, tt.updates[rid])})
		}
		for _, row := range tt.inserts {
			if row != nil {
				entries = append(entries, wal.Entry{Type: wal.TypeInsert, Payload: encodeInsert(name, row)})
			}
		}
	}
	return append(entries, wal.Entry{Type: wal.TypeCommit, Payload: encodeBegin(tx.id)})
}

// applyTable applies one table's staged net effect to the heap, in the same
// order the WAL batch logged it, and maintains the table's indexes — the
// clustered tree and the unclustered ones in the same step, under the X lock
// the committer holds. Bumps the table's commit sequence (the OSP snapshot
// fence, and what dates the index-scan µEngine's leaf list).
func (m *Manager) applyTable(tt *txTable) error {
	t := tt.t
	for _, rid := range sortedRIDs(tt.deletes) {
		if err := t.Heap.DeleteAt(rid); err != nil {
			return err
		}
	}
	for _, rid := range sortedUpdateRIDs(tt.updates) {
		newRow := tt.updates[rid]
		oldRow, err := t.Heap.ReadTuple(rid)
		if err != nil {
			return err
		}
		if err := t.Heap.ReplaceAt(rid, newRow); err != nil {
			return err
		}
		// Index maintenance: add an entry under the new key when it changed.
		// The old entry stays behind as a ghost — fetch paths detect it by
		// re-checking the fetched row's key (see ops index scans). The
		// pre-insert search keeps a key that cycles back (A→B→A) from
		// producing a duplicate (key, rid) entry.
		for col, tr := range t.Unclustered {
			ix := t.Schema.MustColIndex(col)
			if tuple.Compare(oldRow[ix], newRow[ix]) == 0 {
				continue
			}
			enc := EncodeRID(rid)
			existing, err := tr.Search(newRow[ix])
			if err != nil {
				return err
			}
			dup := false
			for _, p := range existing {
				if string(p) == string(enc) {
					dup = true
					break
				}
			}
			if !dup {
				if err := tr.Insert(newRow[ix], enc); err != nil {
					return err
				}
			}
		}
	}
	for _, row := range tt.inserts {
		if row == nil {
			continue
		}
		rid, err := t.Heap.Append(row)
		if err != nil {
			return err
		}
		if err := t.indexRow(rid, row); err != nil {
			return err
		}
	}
	if err := t.Heap.Sync(); err != nil {
		return err
	}
	t.commitSeq.Add(1)
	return nil
}

func sortedRIDs(set map[heap.RID]bool) []heap.RID {
	rids := make([]heap.RID, 0, len(set))
	for r := range set {
		rids = append(rids, r)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	return rids
}

func sortedUpdateRIDs(m map[heap.RID]tuple.Tuple) []heap.RID {
	rids := make([]heap.RID, 0, len(m))
	for r := range m {
		rids = append(rids, r)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	return rids
}
