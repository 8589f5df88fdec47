package tbuf

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"qpipe/internal/tuple"
)

func batchOf(vals ...int64) Batch {
	b := make(Batch, len(vals))
	for i, v := range vals {
		b[i] = tuple.Tuple{tuple.I64(v)}
	}
	return b
}

func TestPutGetFIFO(t *testing.T) {
	b := New(4)
	b.Put(batchOf(1, 2))
	b.Put(batchOf(3))
	got, err := b.Get()
	if err != nil || len(got) != 2 || got[0][0].I != 1 {
		t.Fatalf("first batch: %v %v", got, err)
	}
	got, _ = b.Get()
	if got[0][0].I != 3 {
		t.Fatalf("second batch: %v", got)
	}
}

func TestGetAfterCloseEOF(t *testing.T) {
	b := New(2)
	b.Put(batchOf(1))
	b.Close(nil)
	if _, err := b.Get(); err != nil {
		t.Fatal("queued batch should drain after close")
	}
	if _, err := b.Get(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCloseWithError(t *testing.T) {
	want := errors.New("boom")
	b := New(2)
	b.Close(want)
	if _, err := b.Get(); err != want {
		t.Fatalf("want close error, got %v", err)
	}
	if err := b.Put(batchOf(1)); err == nil {
		t.Fatal("put after close should fail")
	}
	// First close error wins.
	b.Close(errors.New("other"))
	if _, err := b.Get(); err != want {
		t.Fatal("second close must not override")
	}
}

func TestPutBlocksWhenFull(t *testing.T) {
	b := New(1)
	b.Put(batchOf(1))
	done := make(chan error, 1)
	go func() { done <- b.Put(batchOf(2)) }()
	select {
	case <-done:
		t.Fatal("put should block on full buffer")
	case <-time.After(20 * time.Millisecond):
	}
	if s := b.Snapshot(); s.State != StateFull || !s.PutBlocked {
		t.Fatalf("snapshot: %+v", s)
	}
	b.Get()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestGetBlocksWhenEmpty(t *testing.T) {
	b := New(1)
	got := make(chan Batch, 1)
	go func() {
		batch, _ := b.Get()
		got <- batch
	}()
	select {
	case <-got:
		t.Fatal("get should block on empty buffer")
	case <-time.After(20 * time.Millisecond):
	}
	b.Put(batchOf(9))
	batch := <-got
	if batch[0][0].I != 9 {
		t.Fatalf("got %v", batch)
	}
}

func TestAbandonWakesProducer(t *testing.T) {
	b := New(1)
	b.Put(batchOf(1))
	done := make(chan error, 1)
	go func() { done <- b.Put(batchOf(2)) }()
	time.Sleep(10 * time.Millisecond)
	b.Abandon()
	if err := <-done; err != ErrAbandoned {
		t.Fatalf("want ErrAbandoned, got %v", err)
	}
	if err := b.Put(batchOf(3)); err != ErrAbandoned {
		t.Fatal("put after abandon should fail")
	}
}

func TestSetUnboundedUnblocks(t *testing.T) {
	b := New(1)
	b.Put(batchOf(1))
	done := make(chan error, 1)
	go func() { done <- b.Put(batchOf(2)) }()
	time.Sleep(10 * time.Millisecond)
	b.SetUnbounded()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !b.Unbounded() {
		t.Fatal("Unbounded")
	}
	// Many puts without a consumer now succeed.
	for i := 0; i < 100; i++ {
		if err := b.Put(batchOf(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	b := New(1)
	if err := b.Put(nil); err != nil {
		t.Fatal(err)
	}
	if s := b.Snapshot(); s.Queued != 0 {
		t.Fatal("empty put must not enqueue")
	}
}

func TestTotalsAndDrain(t *testing.T) {
	b := New(8)
	b.Put(batchOf(1, 2, 3))
	b.Put(batchOf(4))
	b.Close(nil)
	n, err := b.Drain()
	if err != nil || n != 4 {
		t.Fatalf("drain: %d %v", n, err)
	}
	in, out := b.Totals()
	if in != 4 || out != 4 {
		t.Fatalf("totals: %d %d", in, out)
	}
}

func TestProducerConsumerStress(t *testing.T) {
	b := New(4)
	const total = 5000
	var got int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := b.Put(batchOf(int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
		b.Close(nil)
	}()
	go func() {
		defer wg.Done()
		for {
			batch, err := b.Get()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			got += int64(len(batch))
		}
	}()
	wg.Wait()
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
}

// ---- SharedOut --------------------------------------------------------------

func TestSharedOutFanOut(t *testing.T) {
	primary := New(16)
	so := NewSharedOut(primary, 1024)
	sat := New(16)
	if !so.Attach(sat) {
		t.Fatal("attach before output should succeed")
	}
	so.Put(batchOf(1, 2))
	so.Put(batchOf(3))
	so.Close(nil)
	for name, buf := range map[string]*Buffer{"primary": primary, "sat": sat} {
		n, err := buf.Drain()
		if err != nil || n != 3 {
			t.Fatalf("%s: %d %v", name, n, err)
		}
	}
}

func TestSharedOutReplayOnLateAttach(t *testing.T) {
	primary := New(16)
	so := NewSharedOut(primary, 1024)
	so.Put(batchOf(1, 2, 3))
	sat := New(16)
	if !so.Attach(sat) {
		t.Fatal("attach within replay window should succeed")
	}
	so.Put(batchOf(4))
	so.Close(nil)
	n, _ := sat.Drain()
	if n != 4 {
		t.Fatalf("satellite got %d tuples, want 4 (3 replayed + 1 live)", n)
	}
	n, _ = primary.Drain()
	if n != 4 {
		t.Fatalf("primary got %d tuples", n)
	}
}

func TestSharedOutReplayWindowExpires(t *testing.T) {
	primary := New(1024)
	so := NewSharedOut(primary, 2) // tiny window
	so.Put(batchOf(1, 2, 3))       // exceeds window -> replay invalidated
	sat := New(16)
	if so.Attach(sat) {
		t.Fatal("attach past replay window must fail (WoP expired)")
	}
	so.Close(nil)
	primary.Drain()
}

func TestSharedOutZeroReplayStrictStep(t *testing.T) {
	primary := New(1024)
	so := NewSharedOut(primary, 0)
	sat := New(16)
	if !so.Attach(sat) {
		t.Fatal("attach before any output should succeed even with zero window")
	}
	so.Put(batchOf(1))
	sat2 := New(16)
	if so.Attach(sat2) {
		t.Fatal("attach after first output must fail with zero window")
	}
	so.Close(nil)
}

func TestSharedOutNegativeReplayKeepsAll(t *testing.T) {
	primary := New(1024)
	so := NewSharedOut(primary, -1)
	for i := 0; i < 50; i++ {
		so.Put(batchOf(int64(i)))
	}
	sat := New(64)
	if !so.Attach(sat) {
		t.Fatal("attach with unlimited replay should succeed")
	}
	so.Close(nil)
	n, _ := sat.Drain()
	if n != 50 {
		t.Fatalf("satellite got %d, want 50", n)
	}
}

func TestSharedOutDetachOnAbandon(t *testing.T) {
	fault := errors.New("disk fault")
	for _, tc := range []struct {
		name  string
		leave func(*Buffer) // how the last consumer leaves
		want  error         // what every later Put returns, and Err
	}{
		{"abandoned", (*Buffer).Abandon, ErrConsumersGone},
		{"failed hard", func(b *Buffer) { b.Close(fault) }, fault},
	} {
		primary := New(1024)
		so := NewSharedOut(primary, 1024)
		sat := New(1)
		so.Attach(sat)
		sat.Abandon()
		if err := so.Put(batchOf(1)); err != nil {
			t.Fatalf("%s: put should survive one abandoned consumer: %v", tc.name, err)
		}
		if so.NumConsumers() != 1 || so.Err() != nil {
			t.Fatalf("%s: abandoned consumer not detached (%d), or the port stopped: %v", tc.name, so.NumConsumers(), so.Err())
		}
		tc.leave(primary)
		for i := range 2 {
			if err := so.Put(batchOf(2)); err != tc.want {
				t.Fatalf("%s: put %d after the last consumer left: %v, want %v", tc.name, i, err, tc.want)
			}
		}
		if err := so.Err(); err != tc.want {
			t.Fatalf("%s: Err() = %v, want %v", tc.name, err, tc.want)
		}
		if so.Attach(New(4)) {
			t.Fatalf("%s: a stopped port took a satellite", tc.name)
		}
	}
}

func TestSharedOutAttachAfterClose(t *testing.T) {
	primary := New(4)
	so := NewSharedOut(primary, 1024)
	so.Close(nil)
	if so.Attach(New(4)) {
		t.Fatal("attach after close must fail")
	}
}

func TestSharedOutArrayIsolation(t *testing.T) {
	// Consumers share the immutable rows by reference but never the batch
	// arrays: each satellite gets an array of its own, so the primary
	// reordering (or overwriting slots of) its array disturbs no satellite.
	primary := New(16)
	so := NewSharedOut(primary, 1024)
	sats := []*Buffer{New(16), New(16)}
	for _, sat := range sats {
		so.Attach(sat)
	}
	rows := batchOf(1, 2)
	so.Put(rows)
	so.Close(nil)
	pb, _ := primary.Get()
	if &pb[0] != &rows[0] {
		t.Fatal("the primary consumer should get the producer's array")
	}
	var got []Batch
	for _, sat := range sats {
		sb, _ := sat.Get()
		if &sb[0][0] != &pb[0][0] {
			t.Fatal("consumers should share the immutable row, not copies")
		}
		for _, other := range append(got, pb) {
			if &sb[0] == &other[0] {
				t.Fatal("a satellite shares another consumer's array")
			}
		}
		got = append(got, sb)
	}
	pb[0], pb[1] = pb[1], pb[0]
	for _, sb := range got {
		if sb[0][0].I != 1 || sb[1][0].I != 2 {
			t.Fatal("reordering the primary's array reordered a satellite's")
		}
	}
}

// TestDrainedFIFOAllocatesNothing: a buffer that empties between batches
// keeps its queue's array, so a Put and a Get of a batch the producer
// already made allocate nothing.
func TestDrainedFIFOAllocatesNothing(t *testing.T) {
	b := New(8)
	batch := batchOf(1, 2, 3)
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.Put(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Put+Get on a drained FIFO: %.2f allocs, want 0", allocs)
	}
}

// TestFIFOThatNeverDrains keeps batches queued through many Put/Get cycles,
// bounded and unbounded: order holds, and the queue's array stays a small
// multiple of what is queued instead of growing with everything ever Put.
func TestFIFOThatNeverDrains(t *testing.T) {
	for _, b := range []*Buffer{New(4), func() *Buffer { b := New(1); b.SetUnbounded(); return b }()} {
		next := int64(0)
		for i := int64(0); i < 1000; i++ {
			if err := b.Put(batchOf(i)); err != nil {
				t.Fatal(err)
			}
			if i < 3 {
				continue
			}
			got, err := b.Get()
			if err != nil {
				t.Fatal(err)
			}
			if got[0][0].I != next {
				t.Fatalf("got batch %d, want %d", got[0][0].I, next)
			}
			next++
		}
		if s := b.Snapshot(); s.Queued != 3 || cap(b.queue) > 16 {
			t.Fatalf("%d queued in an array of %d", s.Queued, cap(b.queue))
		}
	}
}

func TestSharedOutProducedCount(t *testing.T) {
	so := NewSharedOut(New(16), 1024)
	so.Put(batchOf(1, 2))
	if so.Produced() != 2 {
		t.Fatalf("produced: %d", so.Produced())
	}
	if so.NumConsumers() != 1 {
		t.Fatal("consumers count")
	}
}
