package buffer

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"runtime"
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

// TestUnpinWithoutTheLock: goroutines pin and unpin hot and cold pages of a
// pool smaller than their working set, releasing through Frame.Unpin and
// Pool.Unpin, neither of which takes the pool's lock for the count. While a
// frame is pinned it stays the page's frame and its bytes the page's; each
// goroutine also unpins a page of its own twice, which leaves its count at 0,
// not below; and at the end every count is 0.
func TestUnpinWithoutTheLock(t *testing.T) {
	const blocks, workers, rounds = 48, 6, 2000
	d := disk.New(disk.Config{BlockSize: 64})
	d.Create("f")
	for i := range blocks + workers {
		if _, err := d.Append("f", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPool(d, workers+2, nil) // at most one shared pin a worker, and its own page
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own := PageID{File: "f", Block: blocks + int64(w)}
			for i := range rounds {
				blk := int64(rng.Intn(4)) // hot
				if rng.Intn(2) == 0 {
					blk = 4 + int64(rng.Intn(blocks-4)) // cold
				}
				id := PageID{File: "f", Block: blk}
				f, err := p.PinFrame(id)
				if err != nil {
					t.Errorf("PinFrame(%v): %v", id, err)
					return
				}
				want := bytes.Repeat([]byte{byte(blk)}, 64)
				for range 2 {
					p.mu.Lock()
					resident := p.frames[id] == f
					p.mu.Unlock()
					if !resident || !bytes.Equal(f.Data(), want) {
						t.Errorf("%v pinned: resident %v, bytes %v", id, resident, f.Data()[:4])
						return
					}
					runtime.Gosched()
				}
				if i%2 == 0 {
					f.Unpin()
				} else {
					p.Unpin(id)
				}
				if i%50 == 0 {
					o, err := p.PinFrame(own)
					if err != nil {
						t.Errorf("PinFrame(%v): %v", own, err)
						return
					}
					o.Unpin()
					o.Unpin()
					if n := o.pins.Load(); n != 0 {
						t.Errorf("%v unpinned twice: %d pins", own, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if p.Stats().Evictions == 0 {
		t.Error("no frame was evicted: the working set fit the pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		if n := f.pins.Load(); n != 0 {
			t.Errorf("%v: %d pins left", id, n)
		}
	}
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

// firstByte is a page kind's locate function for these tests: a layout of one
// "row" whose one offset is the page's first byte, refused for an odd byte.
func firstByte(data []byte, ncols int) (*Layout, error) {
	if data[0]%2 == 1 {
		return nil, fmt.Errorf("page %d is damaged", data[0])
	}
	return &Layout{Rows: 1, Offs: []uint16{uint16(data[0]), 0}}, nil
}

// TestLayoutLifeCycle: a layout is published once the page is accepted, and
// found there by the next visit; it is gone after MarkDirty, after an
// eviction, after Invalidate and after DropFile; a page that is refused
// publishes nothing, is left unpinned and is refused again.
func TestLayoutLifeCycle(t *testing.T) {
	d := newDisk(t, "f", 6)
	p := NewPool(d, 2, nil)
	visit := func(block int64) (fresh bool, err error) {
		t.Helper()
		f, l, fresh, err := p.PinLocated(PageID{File: "f", Block: block}, 1, firstByte)
		if err != nil {
			return false, err
		}
		defer f.Unpin()
		if l.Offs[0] != uint16(block) || f.Layout() != l {
			t.Fatalf("block %d: layout %v, published %v", block, l.Offs, f.Layout())
		}
		return fresh, nil
	}
	want := func(what string, block int64, fresh bool, layouts int) {
		t.Helper()
		got, err := visit(block)
		if n := p.Stats().Layouts; err != nil || got != fresh || n != layouts {
			t.Fatalf("%s: block %d located afresh %v (%v), %d layouts; want %v and %d", what, block, got, err, n, fresh, layouts)
		}
	}
	want("cold", 0, true, 1)
	want("warm", 0, false, 1)
	id := PageID{File: "f", Block: 0}
	if _, err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty(id)
	p.Unpin(id)
	if n := p.Stats().Layouts; n != 0 {
		t.Fatalf("%d layouts after MarkDirty", n)
	}
	want("after a write", 0, true, 1)
	want("a second page", 2, true, 2)
	want("a third evicts the first", 4, true, 2)
	want("which comes back unlocated", 0, true, 2)
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	want("after Invalidate", 0, true, 1)

	// A refused page: typed by the caller's function, wrapped with its name,
	// nothing published, nothing left pinned — twice.
	for range 2 {
		if _, err := visit(1); err == nil || p.Stats().Layouts != 1 {
			t.Fatalf("a damaged page: %v, %d layouts", err, p.Stats().Layouts)
		}
	}
	if err := p.Invalidate(); err != nil {
		t.Fatalf("the refused page was left pinned: %v", err)
	}

	// DropFile: the frames of that file only, without write-back; a pinned
	// one is an error and stays.
	d.Create("g")
	if _, err := d.Append("g", []byte{8}); err != nil {
		t.Fatal(err)
	}
	want("f again", 0, true, 1)
	if f, _, _, err := p.PinLocated(PageID{File: "g"}, 1, firstByte); err != nil {
		t.Fatal(err)
	} else {
		p.MarkDirty(PageID{File: "g"})
		f.Data()[0] = 99 // never written back: the file is dropped first
		if err := p.DropFile("g"); err == nil {
			t.Fatal("DropFile dropped a pinned frame")
		}
		f.Unpin()
	}
	writes := d.Stats().Writes
	if err := p.DropFile("g"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Resident != 1 || st.Layouts != 1 || p.Contains(PageID{File: "g"}) || d.Stats().Writes != writes {
		t.Fatalf("after DropFile: %+v, %d device writes", st, d.Stats().Writes-writes)
	}
	// The file re-created under the name is read from the device, not from
	// the old file's frame.
	d.Create("g")
	if _, err := d.Append("g", []byte{6}); err != nil {
		t.Fatal(err)
	}
	if f, l, fresh, err := p.PinLocated(PageID{File: "g"}, 1, firstByte); err != nil || !fresh || l.Offs[0] != 6 {
		t.Fatalf("the re-created file: %v, fresh %v, %v", err, fresh, l)
	} else {
		f.Unpin()
	}
}

// TestTwoPinnersLocateOnePage: two goroutines that both find a frame without
// a layout both derive it; whichever store lands is kept, and both were handed
// equal layouts of the same bytes.
func TestTwoPinnersLocateOnePage(t *testing.T) {
	d := newDisk(t, "f", 8)
	p := NewPool(d, 8, nil)
	var wg sync.WaitGroup
	var derived [2]int
	for g := range derived {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int64(0); b < 8; b += 2 {
				f, l, fresh, err := p.PinLocated(PageID{File: "f", Block: b}, 1, firstByte)
				if err != nil {
					t.Error(err)
					return
				}
				if l.Offs[0] != uint16(b) {
					t.Errorf("block %d: layout %v", b, l.Offs)
				}
				if fresh {
					derived[g]++
				}
				f.Unpin()
			}
		}()
	}
	wg.Wait()
	if n := derived[0] + derived[1]; n < 4 || n > 8 || p.Stats().Layouts != 4 {
		t.Fatalf("%d derivations of 4 pages, %d layouts", n, p.Stats().Layouts)
	}
}

// TestWriteSitesMarkDirtyFirst reads the two packages that write pages
// through the pool. The table's X lock keeps every scan out for the length of
// a write, so no run of the program can tell whether a write site dropped the
// layout before its first byte or after its last — which is why the rule is
// held here, in the source: in every function that calls MarkDirty, the call
// stands before the first call that mutates page bytes.
func TestWriteSitesMarkDirtyFirst(t *testing.T) {
	mutators := map[string]bool{"Insert": true, "ReplaceAt": true, "DeleteAt": true, "encode": true}
	sites := 0
	for _, path := range []string{"../heap/heap.go", "../btree/btree.go"} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var marked, mutated token.Pos // the first call of each kind
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case sel.Sel.Name == "MarkDirty" && marked == token.NoPos:
					marked = call.Pos()
				case mutators[sel.Sel.Name] && mutated == token.NoPos:
					mutated = call.Pos()
				}
				return true
			})
			if marked == token.NoPos {
				continue
			}
			sites++
			if mutated == token.NoPos || mutated < marked {
				t.Errorf("%s: %s writes the page (%v) before it calls MarkDirty (%v)", path, fn.Name.Name, fset.Position(mutated), fset.Position(marked))
			}
		}
	}
	if sites != 4 {
		t.Errorf("%d write sites found, want the heap's three and the B+tree's one", sites)
	}
}
