package lock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedConcurrent(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := m.Lock(ctx, "t", Shared); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m.Unlock("t", Shared)
	}
}

func TestExclusiveBlocksReaders(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	if err := m.Lock(ctx, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		m.Lock(ctx, "t", Shared)
		acquired.Store(true)
		m.Unlock("t", Shared)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("reader acquired while writer held")
	}
	m.Unlock("t", Exclusive)
	<-done
	if !acquired.Load() {
		t.Fatal("reader never acquired")
	}
}

func TestWriterWaitsForReaders(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	m.Lock(ctx, "t", Shared)
	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		m.Lock(ctx, "t", Exclusive)
		acquired.Store(true)
		m.Unlock("t", Exclusive)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("writer acquired while reader held")
	}
	m.Unlock("t", Shared)
	<-done
}

func TestWriterNotStarved(t *testing.T) {
	// A queued writer must block NEW readers.
	m := NewManager()
	ctx := context.Background()
	m.Lock(ctx, "t", Shared)
	writerGot := make(chan struct{})
	go func() {
		m.Lock(ctx, "t", Exclusive)
		close(writerGot)
	}()
	time.Sleep(20 * time.Millisecond)
	if m.TryLock("t", Shared) {
		t.Fatal("new reader admitted while writer queued")
	}
	m.Unlock("t", Shared)
	<-writerGot
	m.Unlock("t", Exclusive)
	// Reader admitted afterwards.
	if !m.TryLock("t", Shared) {
		t.Fatal("reader blocked after writer done")
	}
	m.Unlock("t", Shared)
}

func TestTryLock(t *testing.T) {
	m := NewManager()
	if !m.TryLock("t", Exclusive) {
		t.Fatal("TryLock X on free table")
	}
	if m.TryLock("t", Exclusive) || m.TryLock("t", Shared) {
		t.Fatal("TryLock should fail while X held")
	}
	m.Unlock("t", Exclusive)
	if !m.TryLock("t", Shared) || !m.TryLock("t", Shared) {
		t.Fatal("TryLock S twice on free table")
	}
	if m.TryLock("t", Exclusive) {
		t.Fatal("TryLock X while S held")
	}
	m.Unlock("t", Shared)
	m.Unlock("t", Shared)
}

func TestContextCancellation(t *testing.T) {
	m := NewManager()
	m.Lock(context.Background(), "t", Exclusive)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := m.Lock(ctx, "t", Shared)
	if err == nil {
		t.Fatal("lock should fail on context timeout")
	}
	m.Unlock("t", Exclusive)
	// The failed waiter must not corrupt state.
	if !m.TryLock("t", Exclusive) {
		t.Fatal("lock state corrupted after cancelled wait")
	}
	m.Unlock("t", Exclusive)
}

func TestIndependentTables(t *testing.T) {
	m := NewManager()
	m.Lock(context.Background(), "a", Exclusive)
	if !m.TryLock("b", Exclusive) {
		t.Fatal("tables should be independent")
	}
	m.Unlock("a", Exclusive)
	m.Unlock("b", Exclusive)
}

func TestUnlockWithoutHoldPanics(t *testing.T) {
	m := NewManager()
	defer func() {
		if recover() == nil {
			t.Error("unlock without hold should panic")
		}
	}()
	m.Unlock("t", Exclusive)
}

func TestManyConcurrentMixed(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	var inWriter atomic.Int32
	var readers atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if (g+i)%5 == 0 {
					if err := m.Lock(ctx, "t", Exclusive); err != nil {
						t.Error(err)
						return
					}
					if inWriter.Add(1) != 1 || readers.Load() != 0 {
						t.Error("writer not exclusive")
					}
					inWriter.Add(-1)
					m.Unlock("t", Exclusive)
				} else {
					if err := m.Lock(ctx, "t", Shared); err != nil {
						t.Error(err)
						return
					}
					readers.Add(1)
					if inWriter.Load() != 0 {
						t.Error("reader overlaps writer")
					}
					readers.Add(-1)
					m.Unlock("t", Shared)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUncontendedLockAllocatesNothing: a lock granted at once registers no
// context wake-up, so a reader's S lock and unlock cost no allocation.
func TestUncontendedLockAllocatesNothing(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Lock(ctx, "t", Shared); err != nil {
			t.Fatal(err)
		}
		m.Unlock("t", Shared)
	}); n != 0 {
		t.Fatalf("uncontended S Lock+Unlock: %v allocations, want 0", n)
	}
}
