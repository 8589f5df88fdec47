// Package disk implements the simulated block device underneath the buffer
// pool. The paper ran on a 4-disk SCSI RAID-0 array; this repo substitutes a
// latency-modelled in-memory block store so that experiments reproduce the
// *shape* of the paper's I/O-bound results at laptop scale (see DESIGN.md §2).
//
// The device exposes named files of fixed-size blocks, charges a configurable
// per-block latency (cheaper for sequential access, like a real spindle), and
// keeps per-file read counters — Figures 1a and 8 are plotted straight from
// these counters.
package disk

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls the latency model. Zero latencies make the device a plain
// in-memory store, which is what the unit tests use for determinism.
type Config struct {
	BlockSize int           // bytes per block (default 8192)
	SeqRead   time.Duration // latency charged for a sequential block read
	RandRead  time.Duration // latency charged for a non-sequential block read
	Write     time.Duration // latency charged per block write
	// Spindles bounds how many latency charges proceed in parallel,
	// modelling aggregate device bandwidth (the paper's testbed was a
	// 4-disk RAID-0 array — Spindles=4). Default 4.
	Spindles int
	// BackingDir, when non-empty, mirrors durable state to real OS files in
	// that directory (written and fsynced by Sync and SyncInPlace), and Open
	// loads any existing files from it. This is what lets a kill -9'd
	// process be recovered by a fresh one; the in-memory durable/volatile
	// model works without it. See durable.go.
	BackingDir string
}

// DefaultBlockSize is used when Config.BlockSize is zero.
const DefaultBlockSize = 8192

// Stats is a snapshot of device counters.
type Stats struct {
	Reads      int64 // total block reads that reached the device
	Writes     int64 // total block writes
	SeqReads   int64 // reads that were sequential w.r.t. the previous read of the same file
	ByFile     map[string]int64
	SleepTotal time.Duration // total simulated latency charged

	FaultsInjected int64 // injected I/O faults that actually fired (tests/chaos)
}

// Disk is a simulated block device. All methods are safe for concurrent use.
type Disk struct {
	cfg Config

	// Latencies are runtime-adjustable (SetLatency) so the benchmark can bulk
	// load at full speed and then enable the latency model for measurement.
	seqLat   atomic.Int64
	randLat  atomic.Int64
	writeLat atomic.Int64

	mu    sync.RWMutex
	files map[string]*file

	reads    atomic.Int64
	writes   atomic.Int64
	seqReads atomic.Int64
	sleepNS  atomic.Int64

	// spindles is a semaphore bounding concurrent latency charges.
	spindles chan struct{}

	// Fault injection (tests and chaos): counted per-file rules for reads
	// and writes, plus an optional seeded probabilistic schedule. All state
	// behind faultMu; the hot path is a single cheap armed-check.
	faultMu    sync.Mutex
	readFault  faultRule
	writeFault faultRule
	sched      *FaultSchedule
	schedRng   *rand.Rand
	schedCount int64
	faultsHit  atomic.Int64

	// Latency jitter (SetLatencyJitter): charged latencies are multiplied
	// by a seeded random factor in [1-frac, 1+frac].
	jitterMu   sync.Mutex
	jitterFrac float64
	jitterRng  *rand.Rand
}

// faultRule is one counted fault arm: while remaining > 0, matching I/O
// fails with err and decrements the counter. An empty file matches every
// file; otherwise it is a name *prefix*, so "tmp:" arms every spill file and
// "tmp:sortrun:" only sort runs. (Exact names remain their own prefix, so
// existing exact-name callers behave unchanged.)
type faultRule struct {
	file      string
	remaining int64
	err       error
}

func (r *faultRule) take(name string) error {
	if r.remaining <= 0 || !faultMatch(name, r.file) {
		return nil
	}
	r.remaining--
	return r.err
}

func faultMatch(name, pat string) bool {
	return pat == "" || strings.HasPrefix(name, pat)
}

// FaultSchedule is a deterministic seeded stream of injected I/O faults:
// each read (write) of a file matching ReadFile (WriteFile) fails with
// probability ReadProb (WriteProb), decided by a PRNG seeded with Seed so a
// chaos run replays identically. Max bounds the total faults injected
// (0 = unlimited); Err is the error returned (required).
type FaultSchedule struct {
	Seed      int64
	ReadProb  float64 // per-read fault probability for matching files
	ReadFile  string  // name prefix filter for reads ("" = every file)
	WriteProb float64 // per-write fault probability for matching files
	WriteFile string  // name prefix filter for writes ("" = every file)
	Max       int64   // total fault budget across reads and writes (0 = unlimited)
	Err       error   // error injected faults return
}

// InjectReadFaults makes the next n reads of files matching the given name
// prefix fail with err (an empty prefix matches every file). Used by
// failure-injection tests to verify that I/O errors propagate cleanly
// through both engines.
func (d *Disk) InjectReadFaults(file string, n int64, err error) {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	d.readFault = faultRule{file: file, remaining: n, err: err}
}

// InjectWriteFaults makes the next n writes (Append or Write) of files
// matching the given name prefix fail with err. The block is NOT persisted
// when the fault fires — a failed write failed. Arms mid-spill failure
// tests: "tmp:" faults the next spill write wherever it lands.
func (d *Disk) InjectWriteFaults(file string, n int64, err error) {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	d.writeFault = faultRule{file: file, remaining: n, err: err}
}

// InjectFaultSchedule arms a deterministic probabilistic fault schedule (see
// FaultSchedule). A nil schedule disarms it. Counted rules from
// InjectReadFaults/InjectWriteFaults fire first; the schedule decides any
// I/O they pass.
func (d *Disk) InjectFaultSchedule(s *FaultSchedule) {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	d.sched = s
	d.schedCount = 0
	if s != nil {
		d.schedRng = rand.New(rand.NewSource(s.Seed))
	} else {
		d.schedRng = nil
	}
}

// ClearFaults disarms all fault injection (counted rules and schedule).
func (d *Disk) ClearFaults() {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	d.readFault = faultRule{}
	d.writeFault = faultRule{}
	d.sched = nil
	d.schedRng = nil
	d.schedCount = 0
}

// FaultsInjected returns the total number of faults injected so far (counted
// rules plus schedule hits) — chaos tests assert the schedule actually bit.
func (d *Disk) FaultsInjected() int64 { return d.faultsHit.Load() }

// takeFault consumes one injected read fault if armed for this file.
func (d *Disk) takeFault(name string) error {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	if err := d.readFault.take(name); err != nil {
		d.faultsHit.Add(1)
		return err
	}
	return d.takeScheduled(name, false)
}

// takeWriteFault consumes one injected write fault if armed for this file.
func (d *Disk) takeWriteFault(name string) error {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	if err := d.writeFault.take(name); err != nil {
		d.faultsHit.Add(1)
		return err
	}
	return d.takeScheduled(name, true)
}

// takeScheduled rolls the armed fault schedule for one I/O (faultMu held).
func (d *Disk) takeScheduled(name string, write bool) error {
	s := d.sched
	if s == nil || (s.Max > 0 && d.schedCount >= s.Max) {
		return nil
	}
	prob, pat := s.ReadProb, s.ReadFile
	if write {
		prob, pat = s.WriteProb, s.WriteFile
	}
	if prob <= 0 || !faultMatch(name, pat) {
		return nil
	}
	if d.schedRng.Float64() >= prob {
		return nil
	}
	d.schedCount++
	d.faultsHit.Add(1)
	return s.Err
}

// SetLatencyJitter multiplies every charged latency by a random factor in
// [1-frac, 1+frac], drawn from a PRNG seeded with seed (deterministic
// sequence, though interleaving across goroutines is not). frac <= 0
// disables jitter. Chaos tests use it to perturb I/O timing without changing
// the mean latency model.
func (d *Disk) SetLatencyJitter(frac float64, seed int64) {
	d.jitterMu.Lock()
	defer d.jitterMu.Unlock()
	if frac <= 0 {
		d.jitterFrac, d.jitterRng = 0, nil
		return
	}
	if frac > 1 {
		frac = 1
	}
	d.jitterFrac = frac
	d.jitterRng = rand.New(rand.NewSource(seed))
}

// jitter applies the armed latency jitter to one charge.
func (d *Disk) jitter(lat time.Duration) time.Duration {
	d.jitterMu.Lock()
	defer d.jitterMu.Unlock()
	if d.jitterFrac <= 0 || lat <= 0 {
		return lat
	}
	f := 1 + d.jitterFrac*(2*d.jitterRng.Float64()-1)
	return time.Duration(float64(lat) * f)
}

type file struct {
	mu     sync.RWMutex
	blocks [][]byte
	// Durability model (see durable.go): blocks[:durableLen] survive a
	// crash; saved holds pre-overwrite images of durable blocks dirtied
	// since the last Sync; durableExists is whether the file survives a
	// CrashDropVolatile at all.
	durableLen    int64
	durableExists bool
	saved         map[int64][]byte
	// Backing-file state (Config.BackingDir only). persistMu serializes the
	// syncs of this file from snapshot through fsync, so two of them cannot
	// land their block images out of order, and guards the fields below.
	// Lock order: Disk.mu, persistMu, mu.
	persistMu sync.Mutex
	fh        *os.File // handle SyncInPlace keeps open
	pbuf      []byte   // SyncInPlace's block images, reused
	backed    int64    // blocks the backing file holds; -1 = none, or unknown: the next sync writes every block
	retired   bool     // removed or created over: a late sync must not re-create the backing file
	// lastRead tracks the most recent block read for sequential detection.
	lastRead atomic.Int64
	reads    atomic.Int64
}

// New creates a device with the given configuration.
func New(cfg Config) *Disk {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Spindles <= 0 {
		cfg.Spindles = 4
	}
	d := &Disk{cfg: cfg, files: make(map[string]*file)}
	d.spindles = make(chan struct{}, cfg.Spindles)
	d.seqLat.Store(int64(cfg.SeqRead))
	d.randLat.Store(int64(cfg.RandRead))
	d.writeLat.Store(int64(cfg.Write))
	return d
}

// Open is New plus recovery of durable state from Config.BackingDir (which
// New ignores on its own): existing backed files become durable device
// files. Use it to reattach to the image a crashed process left behind.
func Open(cfg Config) (*Disk, error) {
	d := New(cfg)
	if cfg.BackingDir != "" {
		if err := d.loadBacking(); err != nil {
			return nil, fmt.Errorf("disk: loading backing dir %q: %w", cfg.BackingDir, err)
		}
	}
	return d, nil
}

// SetLatency changes the latency model at run time (the benchmark loads data
// with zero latency, then enables the model for the measured phase).
func (d *Disk) SetLatency(seq, rand, write time.Duration) {
	d.seqLat.Store(int64(seq))
	d.randLat.Store(int64(rand))
	d.writeLat.Store(int64(write))
}

// BlockSize returns the device block size in bytes.
func (d *Disk) BlockSize() int { return d.cfg.BlockSize }

// Create makes an empty file, replacing any existing file of the same name
// (whose removal is durable immediately, as in Remove).
func (d *Disk) Create(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(name)
	d.files[name] = newFile()
}

// dropLocked forgets a file and, with a backing directory, releases its
// handle and deletes its backing file. Caller holds d.mu.
func (d *Disk) dropLocked(name string) {
	f, ok := d.files[name]
	if !ok {
		return
	}
	delete(d.files, name)
	if d.cfg.BackingDir != "" {
		f.retire()
		os.Remove(d.backingPath(name))
	}
}

func newFile() *file {
	f := &file{backed: -1}
	f.lastRead.Store(-2)
	return f
}

// Exists reports whether the named file exists.
func (d *Disk) Exists(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.files[name]
	return ok
}

// FilesWithPrefix lists the names of files whose name starts with prefix
// (every file for the empty prefix). Tests use it to assert that aborted
// operators left no temp spill files behind.
func (d *Disk) FilesWithPrefix(prefix string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Remove deletes a file. Removing a missing file is a no-op. Removal is
// durable immediately (file metadata operations are journalled by the host
// filesystem, not by this device's write cache).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(name)
}

func (d *Disk) get(name string) (*file, error) {
	d.mu.RLock()
	f, ok := d.files[name]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("disk: no such file %q", name)
	}
	return f, nil
}

// NumBlocks returns the number of blocks in the file (0 if missing).
func (d *Disk) NumBlocks(name string) int {
	f, err := d.get(name)
	if err != nil {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.blocks)
}

// Append adds a block to the end of the file and returns its block number.
// The block is copied; callers may reuse buf.
func (d *Disk) Append(name string, buf []byte) (int64, error) {
	f, err := d.get(name)
	if err != nil {
		return 0, err
	}
	if len(buf) > d.cfg.BlockSize {
		return 0, fmt.Errorf("disk: block of %d bytes exceeds block size %d", len(buf), d.cfg.BlockSize)
	}
	if ferr := d.takeWriteFault(name); ferr != nil {
		return 0, ferr
	}
	b := make([]byte, d.cfg.BlockSize)
	copy(b, buf)
	f.mu.Lock()
	f.blocks = append(f.blocks, b)
	n := int64(len(f.blocks) - 1)
	f.mu.Unlock()
	d.writes.Add(1)
	d.charge(time.Duration(d.writeLat.Load()))
	return n, nil
}

// Write overwrites an existing block.
func (d *Disk) Write(name string, blockNo int64, buf []byte) error {
	f, err := d.get(name)
	if err != nil {
		return err
	}
	if len(buf) > d.cfg.BlockSize {
		return fmt.Errorf("disk: block of %d bytes exceeds block size %d", len(buf), d.cfg.BlockSize)
	}
	if ferr := d.takeWriteFault(name); ferr != nil {
		return ferr
	}
	f.mu.Lock()
	if blockNo < 0 || blockNo >= int64(len(f.blocks)) {
		f.mu.Unlock()
		return fmt.Errorf("disk: write to %q block %d out of range [0,%d)", name, blockNo, len(f.blocks))
	}
	f.markOverwriteLocked(blockNo)
	copy(f.blocks[blockNo], buf)
	clear(f.blocks[blockNo][len(buf):])
	f.mu.Unlock()
	d.writes.Add(1)
	d.charge(time.Duration(d.writeLat.Load()))
	return nil
}

// Read fetches a block, charging simulated latency. The returned slice is a
// copy and may be retained by the caller.
func (d *Disk) Read(name string, blockNo int64) ([]byte, error) {
	f, err := d.get(name)
	if err != nil {
		return nil, err
	}
	if ferr := d.takeFault(name); ferr != nil {
		return nil, ferr
	}
	f.mu.RLock()
	if blockNo < 0 || blockNo >= int64(len(f.blocks)) {
		f.mu.RUnlock()
		return nil, fmt.Errorf("disk: read of %q block %d out of range [0,%d)", name, blockNo, len(f.blocks))
	}
	b := make([]byte, d.cfg.BlockSize)
	copy(b, f.blocks[blockNo])
	f.mu.RUnlock()

	prev := f.lastRead.Swap(blockNo)
	seq := prev+1 == blockNo
	d.reads.Add(1)
	f.reads.Add(1)
	if seq {
		d.seqReads.Add(1)
	}
	lat := time.Duration(d.randLat.Load())
	if seq {
		lat = time.Duration(d.seqLat.Load())
	}
	if lat > 0 {
		d.charge(lat)
	}
	return b, nil
}

// spinThreshold bounds the latencies charged by yielding spin rather than
// time.Sleep: the OS timer rounds sleeps up to its tick (~1ms on stock
// Linux), so per-block latencies in the tens of microseconds would cost
// ~1ms each and wall-clock figures would measure the host's timer
// resolution — modulated chaotically by how much CPU the engine happens to
// burn between reads — instead of the modelled device. Spinning burns at
// most Spindles × spinThreshold of CPU concurrently, and the spin loop
// yields so it degrades fairly on core-starved machines — on hosts with
// fewer cores than Spindles the wall clock stretches with core pressure,
// so absolute figures remain host-dependent there (shapes survive; judge
// scaling factors, not milliseconds, on small CI runners).
const spinThreshold = 500 * time.Microsecond

func (d *Disk) charge(lat time.Duration) {
	lat = d.jitter(lat)
	if lat <= 0 {
		return
	}
	d.sleepNS.Add(int64(lat))
	// One spindle serves one request at a time: concurrent requests beyond
	// the spindle count queue here, which is what makes multi-client
	// workloads disk-bound like the paper's testbed.
	d.spindles <- struct{}{}
	if lat > spinThreshold {
		time.Sleep(lat)
	} else {
		deadline := time.Now().Add(lat)
		for time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	<-d.spindles
}

// Stats snapshots the device counters.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	byFile := make(map[string]int64, len(d.files))
	for name, f := range d.files {
		byFile[name] = f.reads.Load()
	}
	d.mu.RUnlock()
	return Stats{
		Reads:          d.reads.Load(),
		Writes:         d.writes.Load(),
		SeqReads:       d.seqReads.Load(),
		ByFile:         byFile,
		SleepTotal:     time.Duration(d.sleepNS.Load()),
		FaultsInjected: d.faultsHit.Load(),
	}
}

// ResetStats zeroes all counters.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.seqReads.Store(0)
	d.sleepNS.Store(0)
	d.mu.RLock()
	for _, f := range d.files {
		f.reads.Store(0)
	}
	d.mu.RUnlock()
}

// FileReads returns the read counter for one file.
func (d *Disk) FileReads(name string) int64 {
	f, err := d.get(name)
	if err != nil {
		return 0
	}
	return f.reads.Load()
}
