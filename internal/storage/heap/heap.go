// Package heap implements heap files: unordered sequences of slotted pages
// holding one table's tuples, accessed through the buffer pool. Heap files
// are the substrate for file scans — the operator whose sharing behaviour
// (linear WoP, circular scans) drives most of the paper's experiments.
package heap

import (
	"errors"
	"fmt"
	"sync"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// RID identifies a tuple by page number and slot.
type RID struct {
	Page int64
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Less orders RIDs by page then slot — unclustered index scans sort RID
// lists in ascending page order to avoid revisiting pages (paper §3.2).
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// File is a heap file bound to a disk file name and a schema.
type File struct {
	Name   string
	Schema *tuple.Schema
	pool   *buffer.Pool

	mu       sync.Mutex
	npages   int64
	lastPage *page.Page // write buffer for bulk loading (not yet flushed)
	encBuf   []byte     // encode scratch reused across Appends (guarded by mu)
	// tailOpen: block npages-1 is on the device, flushed by Sync, and still
	// takes appends that fit (through the buffer pool).
	tailOpen bool
}

// Create makes a new empty heap file on the pool's disk, replacing a file of
// the same name and whatever the pool still holds of it.
func Create(pool *buffer.Pool, name string, schema *tuple.Schema) *File {
	if err := pool.DropFile(name); err != nil {
		// A page of the file being replaced is pinned: its reader was not
		// excluded, which only a bug in the caller's locking does.
		panic(err)
	}
	pool.Disk().Create(name)
	return &File{Name: name, Schema: schema, pool: pool}
}

// Open binds to an existing heap file. Its tail starts sealed: the first
// append begins a new page.
func Open(pool *buffer.Pool, name string, schema *tuple.Schema) (*File, error) {
	if !pool.Disk().Exists(name) {
		return nil, fmt.Errorf("heap: no such file %q", name)
	}
	return &File{
		Name:   name,
		Schema: schema,
		pool:   pool,
		npages: int64(pool.Disk().NumBlocks(name)),
	}, nil
}

// Pool returns the buffer pool the file reads through.
func (f *File) Pool() *buffer.Pool { return f.pool }

// NumPages returns the number of flushed pages.
func (f *File) NumPages() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.npages
}

// Append inserts a tuple at the end of the file and returns its RID. While
// the tail page a Sync put on the device is open and has room, the tuple
// goes into that page through the buffer pool (Pin, MarkDirty, page.Insert
// — the ReplaceAt/DeleteAt discipline; the caller holds the table X lock),
// so small commits share a page instead of taking one each. Otherwise it
// goes into a private page that is written straight to disk when full,
// bypassing the pool like a real bulk loader would. The encode scratch is
// reused across calls, so bulk loads (TPC-H/Wisconsin generators) pay no
// per-row allocation here.
func (f *File) Append(t tuple.Tuple) (RID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.encBuf = t.Encode(f.encBuf[:0])
	enc := f.encBuf
	if f.tailOpen {
		slot, ok, err := f.insertIntoTailLocked(enc)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return RID{Page: f.npages - 1, Slot: slot}, nil
		}
		f.tailOpen = false // full: never reopened, later rows start a new page
	}
	if f.lastPage != nil && !f.lastPage.HasRoomFor(len(enc)) {
		if err := f.flushLastLocked(); err != nil {
			return RID{}, err
		}
	}
	if f.lastPage == nil {
		f.lastPage = page.New(f.pool.Disk().BlockSize())
	}
	slot, err := f.lastPage.Insert(enc)
	if err != nil {
		return RID{}, fmt.Errorf("heap: tuple larger than a page: %w", err)
	}
	return RID{Page: f.npages, Slot: slot}, nil
}

// insertIntoTailLocked inserts an encoded tuple into the open tail page,
// reporting ok=false when it does not fit.
func (f *File) insertIntoTailLocked(enc []byte) (slot int, ok bool, err error) {
	id := buffer.PageID{File: f.Name, Block: f.npages - 1}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return 0, false, err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	if !p.HasRoomFor(len(enc)) {
		return 0, false, nil
	}
	f.pool.MarkDirty(id) // before the first byte moves: see buffer's package comment
	if slot, err = p.Insert(enc); err != nil {
		return 0, false, err
	}
	return slot, true, nil
}

func (f *File) flushLastLocked() error {
	if f.lastPage == nil {
		return nil
	}
	if _, err := f.pool.Disk().Append(f.Name, f.lastPage.Bytes()); err != nil {
		return err
	}
	f.npages++
	f.lastPage = nil
	return nil
}

// Sync puts every appended tuple on the device, making it visible to scans
// through any pool over that device. The tail page stays open: later
// appends that fit go into the same block (see Append). Durability of those
// rows is the WAL's business; what recovery needs from the heap is that no
// block counted by a checkpoint takes an insert afterwards, and Seal (called
// by the checkpoint) provides that.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncLocked()
}

func (f *File) syncLocked() error {
	if f.lastPage != nil {
		if err := f.flushLastLocked(); err != nil {
			return err
		}
		f.tailOpen = true
		return nil
	}
	if f.tailOpen {
		// Write through what the pool holds of the tail (a no-op when it is
		// clean), so the device — and any other pool over it — has the rows.
		return f.pool.FlushPage(buffer.PageID{File: f.Name, Block: f.npages - 1})
	}
	return nil
}

// Seal is Sync, after which the tail page takes no more appends: the next
// one starts a new block.
func (f *File) Seal() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.syncLocked()
	f.tailOpen = false
	return err
}

// ReadPage pins page pno and decodes all its tuples. The page is unpinned
// before returning (tuples are copies).
func (f *File) ReadPage(pno int64) ([]tuple.Tuple, error) {
	id := buffer.PageID{File: f.Name, Block: pno}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	return p.Tuples(f.Schema.Len())
}

// PinPage pins page pno for a scan and returns its frame with the layout of
// its live rows in slot order (tombstones skipped) — derived here, fresh, when
// no earlier visit of the resident page left one (buffer.Pool.PinLocated,
// page.Locate). The caller indexes the frame's bytes through it until it
// unpins the frame; whatever it keeps it has copied out.
func (f *File) PinPage(pno int64) (fr *buffer.Frame, l *buffer.Layout, fresh bool, err error) {
	return f.pool.PinLocated(buffer.PageID{File: f.Name, Block: pno}, f.Schema.Len(), page.Locate)
}

// ErrDeleted is returned by ReadTuple for a tombstoned RID. Unclustered
// indexes keep ghost entries for deleted rows (cleaned up only by a rebuild),
// so index fetch paths filter on this error rather than treating it as
// failure.
var ErrDeleted = errors.New("heap: tuple deleted")

// ReadTuple fetches a single tuple by RID. Returns ErrDeleted (possibly
// wrapped) if the slot is tombstoned.
func (f *File) ReadTuple(rid RID) (tuple.Tuple, error) {
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	defer f.pool.Unpin(id)
	p := page.FromBytes(raw)
	if p.Tombstone(rid.Slot) {
		return nil, fmt.Errorf("heap: %s slot %d: %w", f.Name, rid.Slot, ErrDeleted)
	}
	return p.Tuple(rid.Slot, f.Schema.Len())
}

// ReplaceAt overwrites the tuple at rid in place (same RID after the
// update). The page is marked dirty, then mutated through the buffer pool;
// durability comes from the WAL, not from an immediate disk write. Only
// flushed pages can be mutated — the storage manager syncs tails at commit,
// so every committed row lives in a flushed page (possibly the open tail).
func (f *File) ReplaceAt(rid RID, t tuple.Tuple) error {
	if err := f.checkFlushed(rid); err != nil {
		return err
	}
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	f.pool.MarkDirty(id)
	return page.FromBytes(raw).ReplaceAt(rid.Slot, t.Encode(nil))
}

// DeleteAt tombstones the tuple at rid. Deleting an already-deleted slot is
// a no-op (redo idempotence). See ReplaceAt for the mutation discipline.
func (f *File) DeleteAt(rid RID) error {
	if err := f.checkFlushed(rid); err != nil {
		return err
	}
	id := buffer.PageID{File: f.Name, Block: rid.Page}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	f.pool.MarkDirty(id)
	return page.FromBytes(raw).DeleteAt(rid.Slot)
}

// CheckMutations reports, without changing anything, whether DeleteAt for
// each slot of deletes and then ReplaceAt for each of updates, in order,
// would succeed on page pno (see page.CheckMutations).
func (f *File) CheckMutations(pno int64, deletes []int, updates []page.Replacement) error {
	if err := f.checkFlushed(RID{Page: pno}); err != nil {
		return err
	}
	id := buffer.PageID{File: f.Name, Block: pno}
	raw, err := f.pool.Pin(id)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(id)
	return page.FromBytes(raw).CheckMutations(deletes, updates)
}

func (f *File) checkFlushed(rid RID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rid.Page < 0 || rid.Page >= f.npages {
		return fmt.Errorf("heap: %s: rid %s not in flushed pages [0,%d)", f.Name, rid, f.npages)
	}
	return nil
}

// Scan iterates all live tuples in page order, invoking fn per tuple with
// its true RID (tombstoned slots are skipped, so RIDs are slot-accurate even
// on pages with deletions). fn returning false stops the scan early.
func (f *File) Scan(fn func(rid RID, t tuple.Tuple) bool) error {
	n := f.NumPages()
	ncols := f.Schema.Len()
	for pno := int64(0); pno < n; pno++ {
		id := buffer.PageID{File: f.Name, Block: pno}
		raw, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		p := page.FromBytes(raw)
		stop := false
		var arena tuple.RowArena
		arena.Grow(p.NumSlots() * ncols)
		for slot := 0; slot < p.NumSlots(); slot++ {
			if p.Tombstone(slot) {
				continue
			}
			payload, err := p.Payload(slot)
			if err != nil {
				f.pool.Unpin(id)
				return err
			}
			t, _, err := tuple.DecodeArena(payload, ncols, &arena)
			if err != nil {
				f.pool.Unpin(id)
				return err
			}
			if !fn(RID{Page: pno, Slot: slot}, t) {
				stop = true
				break
			}
		}
		f.pool.Unpin(id)
		if stop {
			return nil
		}
	}
	return nil
}

// Count returns the number of tuples (full scan).
func (f *File) Count() (int64, error) {
	var n int64
	err := f.Scan(func(RID, tuple.Tuple) bool { n++; return true })
	return n, err
}
