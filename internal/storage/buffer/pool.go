// Package buffer implements the buffer-pool manager that sits between the
// access methods and the simulated disk. It supports pin/unpin semantics,
// dirty-page write-back and LRU replacement.
//
// The pool is the *only* sharing mechanism available to the baseline systems
// in the paper's experiments: if two queries' page requests are far enough
// apart in time that the first query's pages have been evicted, the second
// query pays the full I/O again ("data sharing miss", Definition 1). QPipe's
// OSP layer sits above this pool and removes that timing sensitivity.
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

type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Capacity  int
	Resident  int
}

// Pool is a fixed-capacity page cache over a Disk. All methods are safe for
// concurrent use. Capacity is in pages.
type Pool struct {
	d        *disk.Disk
	capacity int

	mu     sync.Mutex
	frames map[PageID]*frame
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
		frames:   make(map[PageID]*frame, capacity),
		policy:   policy,
	}
}

// Disk returns the underlying device.
func (p *Pool) Disk() *disk.Disk { return p.d }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Pin fetches the page, reading from disk on a miss, and pins it in memory.
// The returned bytes alias the pool frame: callers must treat them as
// read-only unless they also call MarkDirty, and must Unpin when done.
func (p *Pool) Pin(id PageID) ([]byte, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pins++
		p.policy.Touch(id)
		p.mu.Unlock()
		p.hits.Add(1)
		return f.data, nil
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
		f.pins++
		p.policy.Touch(id)
		return f.data, nil
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	f := &frame{id: id, data: data, pins: 1}
	p.frames[id] = f
	p.policy.Insert(id)
	return f.data, nil
}

// makeRoomLocked evicts frames until at least one slot is free.
func (p *Pool) makeRoomLocked() error {
	for len(p.frames) >= p.capacity {
		victim, ok := p.policy.Evict(func(id PageID) bool {
			f, exists := p.frames[id]
			return exists && f.pins == 0
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
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// MarkDirty flags the page for write-back on eviction or Flush.
func (p *Pool) MarkDirty(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		f.dirty = true
	}
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
		if f.pins > 0 {
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
	resident := len(p.frames)
	p.mu.Unlock()
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Capacity:  p.capacity,
		Resident:  resident,
	}
}

// ResetStats zeroes hit/miss/eviction counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
}
