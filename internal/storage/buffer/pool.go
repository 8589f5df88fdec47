// Package buffer implements the buffer-pool manager that sits between the
// access methods and the simulated disk. It supports pin/unpin semantics,
// dirty-page write-back and LRU replacement.
//
// The pool is the *only* sharing mechanism available to the baseline systems
// in the paper's experiments: if two queries' page requests are far enough
// apart in time that the first query's pages have been evicted, the second
// query pays the full I/O again ("data sharing miss", Definition 1). QPipe's
// OSP layer sits above this pool and removes that timing sensitivity.
//
// A frame also keeps what a scan derived from its bytes — its Layout: where
// each row's columns lie, and each kind-uniform numeric column decoded into a
// vector — so a later scan of the resident page reuses the earlier one's parse
// and decode as it reuses its read. A layout's whole life (its vectors' too)
// is stated here and nowhere else:
//
//   - it is published by PinLocated only, after the page kind's locate
//     function has validated the whole page (two scan workers may both derive
//     it: the results are equal, and whichever store lands is kept);
//   - it is dropped before the first byte of a write: every write site calls
//     MarkDirty first, under the pin it already holds, and MarkDirty clears it
//     (the table's X lock, which excludes scans for the length of the write,
//     keeps a scan from deriving one of the bytes in between);
//   - it dies with its frame — on eviction, Invalidate and DropFile, which is
//     what creating a file over a name or removing one calls.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qpipe/internal/storage/disk"
)

// PageID identifies a disk block.
type PageID struct {
	File  string
	Block int64
}

func (id PageID) String() string { return fmt.Sprintf("%s:%d", id.File, id.Block) }

// Layout locates the rows of one page: column c of live row r starts at byte
// Offs[r*stride+c] of the frame, where stride is the rows' column count plus
// one, a row's last entry being the byte just past it. Beside the offsets it
// carries the page's numbers decoded once (tuple.Vectors): Kinds[c] is the
// tuple.Kind of every value of column c when they are all numbers of one
// kind, 0 when not, and Vecs their payloads, column after column of a kind,
// one a row. It is immutable once made and its arrays hold no pointer, so the
// collector never scans them: 2·stride bytes a live row, plus 8 bytes a
// numeric cell, beside the page's bytes.
type Layout struct {
	Rows  int
	Offs  []uint16
	Kinds []uint8  // nil: no column has a vector
	Vecs  []uint64 // column-major
}

// Vec returns column c's numbers and their kind, or 0 and nil when the column
// has no vector.
func (l *Layout) Vec(c int) (kind uint8, vec []uint64) {
	if c >= len(l.Kinds) || l.Kinds[c] == 0 {
		return 0, nil
	}
	i := 0
	for _, k := range l.Kinds[:c] {
		if k != 0 {
			i++
		}
	}
	return l.Kinds[c], l.Vecs[i*l.Rows : (i+1)*l.Rows]
}

// Frame is one resident page: its bytes and the layout derived from them.
// A caller holds it from PinFrame (or PinLocated) to Unpin.
type Frame struct {
	pool   *Pool
	data   []byte
	pins   atomic.Int32 // raised under pool.mu only, lowered without it
	dirty  bool         // guarded by pool.mu
	layout atomic.Pointer[Layout]
}

// Data returns the page bytes. They alias the pool's frame: read-only unless
// the caller has called MarkDirty first.
func (f *Frame) Data() []byte { return f.data }

// Layout returns the frame's published layout, nil when it has none.
func (f *Frame) Layout() *Layout { return f.layout.Load() }

// Unpin releases the caller's pin without the pool's lock, and never takes
// the count below zero. A pin raises it under the lock (which a hit takes
// anyway, to move the page in the LRU order), and eviction reads it there: an
// unpinned victim stays unpinned.
func (f *Frame) Unpin() {
	for n := f.pins.Load(); n > 0 && !f.pins.CompareAndSwap(n, n-1); n = f.pins.Load() {
	}
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Capacity  int
	Resident  int
	Layouts   int // resident frames holding a layout
}

// Pool is a fixed-capacity page cache over a Disk. All methods are safe for
// concurrent use. Capacity is in pages.
type Pool struct {
	d        *disk.Disk
	capacity int

	mu     sync.Mutex
	frames map[PageID]*Frame
	policy Policy

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewPool creates a pool of the given page capacity. A nil policy is LRU,
// and nil is what every caller passes: the parameter is still here only
// because bench/kernels.go, which is frozen, passes it.
func NewPool(d *disk.Disk, capacity int, policy Policy) *Pool {
	if capacity <= 0 {
		capacity = 64
	}
	if policy == nil {
		policy = NewLRU()
	}
	return &Pool{
		d:        d,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		policy:   policy,
	}
}

// Disk returns the underlying device.
func (p *Pool) Disk() *disk.Disk { return p.d }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Pin is PinFrame for callers that want the bytes only; they release the pin
// with Unpin(id).
func (p *Pool) Pin(id PageID) ([]byte, error) {
	f, err := p.PinFrame(id)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// PinLocated pins the page and returns its frame with the layout of its rows
// of ncols columns: the published one, or — fresh — the one locate derives
// from the bytes here, published once locate has accepted the whole page. A
// page locate rejects publishes nothing, is not left pinned, and fails again
// on the next visit.
func (p *Pool) PinLocated(id PageID, ncols int, locate func(data []byte, ncols int) (*Layout, error)) (f *Frame, l *Layout, fresh bool, err error) {
	if f, err = p.PinFrame(id); err != nil {
		return nil, nil, false, err
	}
	if l = f.layout.Load(); l != nil {
		return f, l, false, nil
	}
	if l, err = locate(f.data, ncols); err != nil {
		f.Unpin()
		return nil, nil, false, fmt.Errorf("%s: %w", id, err)
	}
	f.layout.Store(l)
	return f, l, true, nil
}

// PinFrame fetches the page, reading from disk on a miss, and pins it in
// memory until the frame's Unpin.
func (p *Pool) PinFrame(id PageID) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pins.Add(1)
		p.policy.Touch(id)
		p.mu.Unlock()
		p.hits.Add(1)
		return f, nil
	}
	p.mu.Unlock()

	// Miss: read outside the lock so concurrent hits are not serialized
	// behind simulated disk latency. A racing second miss of the same page
	// is resolved below (last writer discards its copy).
	data, err := p.d.Read(id.File, id.Block)
	if err != nil {
		return nil, err
	}
	p.misses.Add(1)

	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		// Someone else cached it while we were reading.
		f.pins.Add(1)
		p.policy.Touch(id)
		return f, nil
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	f := &Frame{pool: p, data: data}
	f.pins.Store(1)
	p.frames[id] = f
	p.policy.Insert(id)
	return f, nil
}

// makeRoomLocked evicts frames until at least one slot is free.
func (p *Pool) makeRoomLocked() error {
	for len(p.frames) >= p.capacity {
		victim, ok := p.policy.Evict(func(id PageID) bool {
			f, exists := p.frames[id]
			return exists && f.pins.Load() == 0
		})
		if !ok {
			return fmt.Errorf("buffer: all %d frames pinned, cannot evict", p.capacity)
		}
		f := p.frames[victim]
		if f.dirty {
			if err := p.d.Write(victim.File, victim.Block, f.data); err != nil {
				return fmt.Errorf("buffer: write-back of %s failed: %w", victim, err)
			}
		}
		delete(p.frames, victim)
		p.policy.Remove(victim)
		p.evictions.Add(1)
	}
	return nil
}

// Unpin releases one pin on the page.
func (p *Pool) Unpin(id PageID) {
	p.mu.Lock()
	f, ok := p.frames[id]
	p.mu.Unlock()
	if ok {
		f.Unpin()
	}
}

// MarkDirty announces a write to the page, which the caller has pinned and
// has not yet touched: the frame's layout is dropped — no scan indexes bytes
// that are about to move — and the page is flagged for write-back on eviction
// or Flush.
func (p *Pool) MarkDirty(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		f.dirty = true
		f.layout.Store(nil)
	}
}

// DropFile forgets the frames of a file that is being removed or created
// over: they leave the pool and the replacement order without write-back,
// their bytes (and layouts) being those of a file that no longer exists. A
// frame still pinned stays, and is an error.
func (p *Pool) DropFile(name string) (err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		switch {
		case id.File != name:
		case f.pins.Load() > 0:
			err = fmt.Errorf("buffer: %s still pinned, its file dropped", id)
		default:
			delete(p.frames, id)
			p.policy.Remove(id)
		}
	}
	return err
}

// Contains reports whether the page is currently resident (used by tests and
// by the spike-overlap check: an ordered scan may only piggyback if the first
// output page is still in memory).
func (p *Pool) Contains(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

// FlushPage writes the page back if it is resident and dirty (it stays
// resident).
func (p *Pool) FlushPage(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || !f.dirty {
		return nil
	}
	if err := p.d.Write(id.File, id.Block, f.data); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Flush writes back all dirty pages (pool remains warm).
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		if f.dirty {
			if err := p.d.Write(id.File, id.Block, f.data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// Invalidate drops every resident page (write-back first): a cold start of
// the cache.
func (p *Pool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		if f.pins.Load() > 0 {
			return fmt.Errorf("buffer: cannot invalidate, %s still pinned", id)
		}
		if f.dirty {
			if err := p.d.Write(id.File, id.Block, f.data); err != nil {
				return err
			}
		}
		delete(p.frames, id)
		p.policy.Remove(id)
	}
	return nil
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	resident, layouts := len(p.frames), 0
	for _, f := range p.frames {
		if f.layout.Load() != nil {
			layouts++
		}
	}
	p.mu.Unlock()
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Capacity:  p.capacity,
		Resident:  resident,
		Layouts:   layouts,
	}
}

// ResetStats zeroes hit/miss/eviction counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
}
