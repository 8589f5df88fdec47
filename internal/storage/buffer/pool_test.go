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

func TestPoolPolicyNames(t *testing.T) {
	d := newDisk(t, "f", 1)
	for _, tc := range []struct {
		pol  Policy
		name string
	}{
		{NewLRU(), "lru"},
		{NewClock(), "clock"},
		{NewLRUK(2), "lru-2"},
		{NewLRUK(3), "lru-k"},
		{NewTwoQ(8), "2q"},
		{NewARC(8), "arc"},
	} {
		p := NewPool(d, 8, tc.pol)
		if p.PolicyName() != tc.name {
			t.Errorf("policy name: got %q want %q", p.PolicyName(), tc.name)
		}
	}
	if NewPool(d, 8, nil).PolicyName() != "lru" {
		t.Error("nil policy should default to LRU")
	}
}

// runTrace plays an access trace against a pool of the given capacity and
// returns the hit count.
func runTrace(t *testing.T, pol func() Policy, capacity int, trace []int64) int64 {
	t.Helper()
	d := disk.New(disk.Config{BlockSize: 64})
	d.Create("f")
	maxBlk := int64(0)
	for _, b := range trace {
		if b > maxBlk {
			maxBlk = b
		}
	}
	for i := int64(0); i <= maxBlk; i++ {
		d.Append("f", []byte{byte(i)})
	}
	p := NewPool(d, capacity, pol())
	for _, b := range trace {
		id := PageID{File: "f", Block: b}
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
	}
	return p.Stats().Hits
}

// TestScanResistance: a working set re-referenced between large sequential
// scans. Scan-resistant policies (2Q, ARC, LRU-2) must keep the working set
// resident; plain LRU flushes it on every scan pass.
func TestScanResistance(t *testing.T) {
	var trace []int64
	// Working set: blocks 0..3 (hot), referenced twice per round (the second
	// reference is a resident hit — the frequency signal). Between rounds, a
	// capacity-sized scan of fresh blocks washes through the pool. Plain LRU
	// evicts the hot set every round; scan-resistant policies keep it.
	for round := int64(0); round < 8; round++ {
		for b := int64(0); b < 4; b++ {
			trace = append(trace, b, b)
		}
		for b := int64(0); b < 8; b++ {
			trace = append(trace, 10+round*8+b)
		}
	}
	cap := 8
	lruHits := runTrace(t, func() Policy { return NewLRU() }, cap, trace)
	twoqHits := runTrace(t, func() Policy { return NewTwoQ(cap) }, cap, trace)
	arcHits := runTrace(t, func() Policy { return NewARC(cap) }, cap, trace)
	lrukHits := runTrace(t, func() Policy { return NewLRUK(2) }, cap, trace)
	if twoqHits <= lruHits {
		t.Errorf("2Q (%d hits) should beat LRU (%d hits) on scan-heavy trace", twoqHits, lruHits)
	}
	if arcHits <= lruHits {
		t.Errorf("ARC (%d hits) should beat LRU (%d hits)", arcHits, lruHits)
	}
	if lrukHits <= lruHits {
		t.Errorf("LRU-2 (%d hits) should beat LRU (%d hits)", lrukHits, lruHits)
	}
}

// TestPoliciesCorrectUnderRandomTrace cross-checks every policy against a
// straightforward trace: whatever is evicted must be re-readable and content
// must always match (the policy can be arbitrary, the pool must be correct).
func TestPoliciesCorrectUnderRandomTrace(t *testing.T) {
	policies := map[string]func() Policy{
		"lru":   func() Policy { return NewLRU() },
		"clock": func() Policy { return NewClock() },
		"lru2":  func() Policy { return NewLRUK(2) },
		"2q":    func() Policy { return NewTwoQ(6) },
		"arc":   func() Policy { return NewARC(6) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			d := newDisk(t, "f", 32)
			p := NewPool(d, 6, mk())
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
