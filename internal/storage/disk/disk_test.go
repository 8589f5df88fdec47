package disk

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCreateReadWrite(t *testing.T) {
	d := New(Config{BlockSize: 64})
	d.Create("f")
	if !d.Exists("f") || d.Exists("g") {
		t.Fatal("Exists")
	}
	n, err := d.Append("f", []byte("hello"))
	if err != nil || n != 0 {
		t.Fatalf("Append: %d %v", n, err)
	}
	b, err := d.Read("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 64 || string(b[:5]) != "hello" {
		t.Errorf("Read: %q", b[:8])
	}
	if err := d.Write("f", 0, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	b, _ = d.Read("f", 0)
	if string(b[:3]) != "bye" || b[3] != 0 {
		t.Errorf("Write should zero-pad: %q", b[:8])
	}
}

func TestReadErrors(t *testing.T) {
	d := New(Config{BlockSize: 32})
	if _, err := d.Read("missing", 0); err == nil {
		t.Error("read of missing file should fail")
	}
	d.Create("f")
	if _, err := d.Read("f", 0); err == nil {
		t.Error("read past EOF should fail")
	}
	if _, err := d.Read("f", -1); err == nil {
		t.Error("negative block should fail")
	}
	if err := d.Write("f", 3, []byte("x")); err == nil {
		t.Error("write past EOF should fail")
	}
	if _, err := d.Append("f", make([]byte, 33)); err == nil {
		t.Error("oversized append should fail")
	}
}

func TestCountersAndSequentialDetection(t *testing.T) {
	d := New(Config{BlockSize: 32})
	d.Create("f")
	for i := 0; i < 4; i++ {
		d.Append("f", []byte{byte(i)})
	}
	// Sequential pass.
	for i := int64(0); i < 4; i++ {
		d.Read("f", i)
	}
	// One random read (block 0 after block 3 is non-sequential).
	d.Read("f", 0)
	st := d.Stats()
	if st.Reads != 5 {
		t.Errorf("Reads = %d", st.Reads)
	}
	// Reads 1,2,3 are sequential; read of 0 at start and the jump back are not.
	if st.SeqReads != 3 {
		t.Errorf("SeqReads = %d", st.SeqReads)
	}
	if st.Writes != 4 {
		t.Errorf("Writes = %d", st.Writes)
	}
	if st.ByFile["f"] != 5 {
		t.Errorf("ByFile = %v", st.ByFile)
	}
	if d.FileReads("f") != 5 || d.FileReads("g") != 0 {
		t.Error("FileReads")
	}
	d.ResetStats()
	if s := d.Stats(); s.Reads != 0 || s.ByFile["f"] != 0 {
		t.Error("ResetStats")
	}
}

func TestLatencyCharged(t *testing.T) {
	d := New(Config{BlockSize: 32, SeqRead: time.Millisecond, RandRead: time.Millisecond})
	d.Create("f")
	d.Append("f", []byte("x"))
	start := time.Now()
	for i := 0; i < 5; i++ {
		d.Read("f", 0)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Errorf("expected >=5ms of charged latency, got %v", el)
	}
	if st := d.Stats(); st.SleepTotal < 5*time.Millisecond {
		t.Errorf("SleepTotal = %v", st.SleepTotal)
	}
}

func TestRemove(t *testing.T) {
	d := New(Config{})
	d.Create("f")
	d.Remove("f")
	if d.Exists("f") {
		t.Error("Remove")
	}
	d.Remove("f") // no-op
	if d.NumBlocks("f") != 0 {
		t.Error("NumBlocks of missing file should be 0")
	}
}

func TestConcurrentReads(t *testing.T) {
	d := New(Config{BlockSize: 32})
	d.Create("f")
	for i := 0; i < 8; i++ {
		d.Append("f", []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b, err := d.Read("f", int64(i%8))
				if err != nil || b[0] != byte(i%8) {
					t.Errorf("goroutine %d: %v %v", g, b[0], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := d.Stats(); st.Reads != 800 {
		t.Errorf("Reads = %d, want 800", st.Reads)
	}
}

func TestDefaultBlockSize(t *testing.T) {
	d := New(Config{})
	if d.BlockSize() != DefaultBlockSize {
		t.Errorf("BlockSize = %d", d.BlockSize())
	}
}

func TestInjectReadFaults(t *testing.T) {
	d := New(Config{BlockSize: 32})
	d.Create("a")
	d.Create("b")
	d.Append("a", []byte{1})
	d.Append("b", []byte{2})
	boom := fmt.Errorf("boom")
	d.InjectReadFaults("a", 2, boom)
	// Faults hit only file a, exactly twice.
	if _, err := d.Read("b", 0); err != nil {
		t.Fatalf("unaffected file failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Read("a", 0); err != boom {
			t.Fatalf("read %d: want injected error, got %v", i, err)
		}
	}
	if _, err := d.Read("a", 0); err != nil {
		t.Fatalf("fault budget exhausted but read failed: %v", err)
	}
	// Wildcard faults hit every file.
	d.InjectReadFaults("", 1, boom)
	if _, err := d.Read("b", 0); err != boom {
		t.Fatalf("wildcard fault missed: %v", err)
	}
	if _, err := d.Read("b", 0); err != nil {
		t.Fatal("fault persisted past budget")
	}
}

func TestSpindleBoundSerializesLatency(t *testing.T) {
	// With 1 spindle, two concurrent 10ms reads take ~20ms; with 2
	// spindles they overlap.
	run := func(spindles int) time.Duration {
		d := New(Config{BlockSize: 32, SeqRead: 10 * time.Millisecond,
			RandRead: 10 * time.Millisecond, Spindles: spindles})
		d.Create("f")
		d.Append("f", []byte{1})
		d.Append("f", []byte{2})
		start := time.Now()
		var wg sync.WaitGroup
		for i := int64(0); i < 2; i++ {
			wg.Add(1)
			go func(i int64) {
				defer wg.Done()
				d.Read("f", i)
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	serial := run(1)
	parallel := run(2)
	if serial < 18*time.Millisecond {
		t.Errorf("1 spindle should serialize: %v", serial)
	}
	if parallel > 18*time.Millisecond {
		t.Errorf("2 spindles should overlap: %v", parallel)
	}
}

func TestInjectWriteFaults(t *testing.T) {
	d := New(Config{BlockSize: 32})
	d.Create("tmp:sortrun:1")
	d.Create("tbl:t")
	boom := fmt.Errorf("boom")
	// Prefix matching: "tmp:" arms every spill file, leaves tables alone.
	d.InjectWriteFaults("tmp:", 2, boom)
	if _, err := d.Append("tbl:t", []byte{1}); err != nil {
		t.Fatalf("unaffected file failed: %v", err)
	}
	if _, err := d.Append("tmp:sortrun:1", []byte{1}); err != boom {
		t.Fatalf("want injected write fault, got %v", err)
	}
	// The faulted block must NOT have been persisted.
	if n := d.NumBlocks("tmp:sortrun:1"); n != 0 {
		t.Fatalf("faulted append persisted %d blocks", n)
	}
	// Write (overwrite) path is faulted too.
	d.Append("tbl:t", []byte{2})
	if err := d.Write("tmp:sortrun:1", 0, []byte{3}); err != boom {
		t.Fatalf("want injected overwrite fault, got %v", err)
	}
	// Budget exhausted: writes succeed again.
	if _, err := d.Append("tmp:sortrun:1", []byte{4}); err != nil {
		t.Fatalf("budget exhausted but write failed: %v", err)
	}
	if got := d.FaultsInjected(); got != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", got)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	boom := fmt.Errorf("boom")
	run := func() []bool {
		d := New(Config{BlockSize: 32})
		d.Create("f")
		d.Append("f", []byte{1})
		d.InjectFaultSchedule(&FaultSchedule{Seed: 42, ReadProb: 0.3, WriteProb: 0.3, Err: boom})
		var hits []bool
		for i := 0; i < 50; i++ {
			_, err := d.Read("f", 0)
			hits = append(hits, err != nil)
			_, err = d.Append("f", []byte{byte(i)})
			hits = append(hits, err != nil)
		}
		return hits
	}
	a, b := run(), run()
	var n int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at step %d", i)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("schedule hit %d/%d I/Os — expected a mix", n, len(a))
	}
}

func TestFaultScheduleMaxAndClear(t *testing.T) {
	boom := fmt.Errorf("boom")
	d := New(Config{BlockSize: 32})
	d.Create("f")
	d.Append("f", []byte{1})
	d.InjectFaultSchedule(&FaultSchedule{Seed: 1, ReadProb: 1, Max: 3, Err: boom})
	var hits int64
	for i := 0; i < 10; i++ {
		if _, err := d.Read("f", 0); err != nil {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("Max=3 schedule injected %d faults", hits)
	}
	if got := d.Stats().FaultsInjected; got != 3 {
		t.Fatalf("Stats.FaultsInjected = %d, want 3", got)
	}
	d.InjectFaultSchedule(&FaultSchedule{Seed: 1, ReadProb: 1, Err: boom})
	d.InjectReadFaults("f", 1, boom)
	d.ClearFaults()
	if _, err := d.Read("f", 0); err != nil {
		t.Fatalf("ClearFaults left injection armed: %v", err)
	}
}

func TestLatencyJitter(t *testing.T) {
	d := New(Config{BlockSize: 32, RandRead: 100 * time.Microsecond, SeqRead: 100 * time.Microsecond})
	d.Create("f")
	d.Append("f", []byte{1})
	d.SetLatencyJitter(0.5, 7)
	for i := 0; i < 20; i++ {
		d.Read("f", 0)
	}
	st := d.Stats()
	// 20 reads at 100µs ±50%: total charged must land inside [1ms, 3ms] and
	// essentially never on exactly 2ms.
	if st.SleepTotal < 1*time.Millisecond || st.SleepTotal > 3*time.Millisecond {
		t.Fatalf("jittered SleepTotal = %v out of range", st.SleepTotal)
	}
	if st.SleepTotal == 2*time.Millisecond {
		t.Fatalf("SleepTotal exactly nominal — jitter not applied")
	}
	d.SetLatencyJitter(0, 0) // disable
	d.ResetStats()
	d.Read("f", 0)
	if got := d.Stats().SleepTotal; got != 100*time.Microsecond {
		t.Fatalf("jitter disabled but SleepTotal = %v", got)
	}
}
