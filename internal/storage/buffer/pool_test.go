package buffer

import (
	"fmt"
	"sync"
	"testing"

	"qpipe/internal/storage/disk"
)

func newDisk(t *testing.T, file string, blocks int) *disk.Disk {
	t.Helper()
	d := disk.New(disk.Config{BlockSize: 64})
	d.Create(file)
	for i := 0; i < blocks; i++ {
		if _, err := d.Append(file, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestPinMissThenHit(t *testing.T) {
	d := newDisk(t, "f", 4)
	p := NewPool(d, 2, NewLRU())
	id := PageID{File: "f", Block: 1}
	b, err := p.Pin(id)
	if err != nil || b[0] != 1 {
		t.Fatalf("Pin: %v %v", b, err)
	}
	p.Unpin(id)
	if _, err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id)
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if d.Stats().Reads != 1 {
		t.Errorf("disk reads = %d, want 1", d.Stats().Reads)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	d := newDisk(t, "f", 4)
	p := NewPool(d, 2, NewLRU())
	pin := func(b int64) {
		id := PageID{File: "f", Block: b}
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	pin(0)
	pin(1)
	pin(0) // touch 0: now 1 is LRU
	pin(2) // evicts 1
	if !p.Contains(PageID{File: "f", Block: 0}) {
		t.Error("page 0 should be resident")
	}
	if p.Contains(PageID{File: "f", Block: 1}) {
		t.Error("page 1 should have been evicted")
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	d := newDisk(t, "f", 4)
	p := NewPool(d, 2, NewLRU())
	id0 := PageID{File: "f", Block: 0}
	id1 := PageID{File: "f", Block: 1}
	p.Pin(id0) // stays pinned
	p.Pin(id1) // stays pinned
	if _, err := p.Pin(PageID{File: "f", Block: 2}); err == nil {
		t.Error("pinning a third page with all frames pinned should fail")
	}
	p.Unpin(id1)
	if _, err := p.Pin(PageID{File: "f", Block: 2}); err != nil {
		t.Errorf("should evict unpinned page 1: %v", err)
	}
	if !p.Contains(id0) {
		t.Error("pinned page 0 must survive")
	}
}

func TestDirtyWriteBack(t *testing.T) {
	d := newDisk(t, "f", 3)
	p := NewPool(d, 1, NewLRU())
	id := PageID{File: "f", Block: 0}
	b, _ := p.Pin(id)
	b[0] = 0xAB
	p.MarkDirty(id)
	p.Unpin(id)
	// Force eviction by pinning another page.
	p.Pin(PageID{File: "f", Block: 1})
	p.Unpin(PageID{File: "f", Block: 1})
	raw, _ := d.Read("f", 0)
	if raw[0] != 0xAB {
		t.Error("dirty page not written back on eviction")
	}
}

func TestFlushAndInvalidate(t *testing.T) {
	d := newDisk(t, "f", 3)
	p := NewPool(d, 4, NewLRU())
	id := PageID{File: "f", Block: 2}
	b, _ := p.Pin(id)
	b[0] = 0x77
	p.MarkDirty(id)
	p.Unpin(id)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, _ := d.Read("f", 2)
	if raw[0] != 0x77 {
		t.Error("Flush did not write back")
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Contains(id) {
		t.Error("Invalidate should drop residents")
	}
	// Invalidate with a pinned page fails.
	p.Pin(id)
	if err := p.Invalidate(); err == nil {
		t.Error("Invalidate with pinned page should fail")
	}
	p.Unpin(id)
}

func TestConcurrentPinUnpin(t *testing.T) {
	d := newDisk(t, "f", 16)
	// One frame per goroutine: each holds one pin at a time, so a smaller
	// pool can legitimately find every frame pinned and fail the Pin.
	p := NewPool(d, 8, NewLRU())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				blk := int64((seed*7 + i) % 16)
				id := PageID{File: "f", Block: blk}
				b, err := p.Pin(id)
				if err != nil {
					t.Errorf("Pin: %v", err)
					return
				}
				if b[0] != byte(blk) {
					t.Errorf("content mismatch on block %d: %d", blk, b[0])
					p.Unpin(id)
					return
				}
				p.Unpin(id)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoliciesCorrectUnderRandomTrace: whatever is evicted must be re-readable
// and content must always match (the pool must be correct whichever page the
// policy gives up).
func TestPoliciesCorrectUnderRandomTrace(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		d := newDisk(t, "f", 32)
		p := NewPool(d, 6, nil)
		// Deterministic pseudo-random walk.
		x := int64(1)
		for i := 0; i < 3000; i++ {
			x = (x*1103515245 + 12345) % 32
			if x < 0 {
				x += 32
			}
			id := PageID{File: "f", Block: x}
			b, err := p.Pin(id)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if b[0] != byte(x) {
				t.Fatalf("step %d: content mismatch block %d got %d", i, x, b[0])
			}
			p.Unpin(id)
		}
		st := p.Stats()
		if st.Resident > 6 {
			t.Errorf("resident %d exceeds capacity", st.Resident)
		}
		if st.Hits+st.Misses != 3000 {
			t.Errorf("hits+misses = %d", st.Hits+st.Misses)
		}
	})
}

func TestPageIDString(t *testing.T) {
	id := PageID{File: "f", Block: 3}
	if id.String() != "f:3" {
		t.Errorf("String: %q", id.String())
	}
	if fmt.Sprint(id) != "f:3" {
		t.Error("fmt.Sprint")
	}
}
