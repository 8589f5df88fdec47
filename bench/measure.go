package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qpipe/internal/plan"
)

// ---- arithmetic ------------------------------------------------------------------

// quantile returns the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks (so 0.5 over an even count is the mean of
// the middle pair). Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geomean is the geometric mean of the positive values; 0 when there are
// none. A class with a non-positive value (no samples) is left out.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---- the process, seen from outside -------------------------------------------------

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "key: value" line of a /proc/self file; 0 when the
// file or key is missing (not Linux, or a restricted sandbox).
func procField(file, key string) int64 {
	b, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseInt(f[0], 10, 64)
			return v
		}
	}
	return 0
}

// deviceWriteBytes is the bytes this process has sent to the storage layer.
func deviceWriteBytes() int64 { return procField("io", "write_bytes") }

func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// gitSHA reads the checked-out commit without starting a process; a
// checkout that is not a git repository has none.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

// ---- calibrations ------------------------------------------------------------------

const calibrationRuns = 25

// sleep1msActual is what time.Sleep(1ms) costs on this box: the unit the
// simulated disk's wall time is made of.
func sleep1msActual() float64 {
	xs := make([]float64, calibrationRuns)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// fsyncMS times the durable store's commit pattern (write, fsync, rename)
// on one block in dir.
func fsyncMS(dir string) (float64, error) {
	block := make([]byte, 8192)
	path := dir + "/fsync-probe"
	xs := make([]float64, calibrationRuns)
	for i := range xs {
		t0 := time.Now()
		f, err := os.Create(path + ".tmp")
		if err != nil {
			return 0, err
		}
		if _, err := f.Write(block); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t0))
	}
	return median(xs), os.Remove(path)
}

// ---- counter snapshots ---------------------------------------------------------------

// The exported counters of the layers, and of the process, that metrics are
// differences of.
const (
	cCPUms = iota // process user+sys
	cShares
	cScanShares
	cShed
	cTimeouts
	cDeadlocks
	cMaterialized
	cDiskReads
	cDiskSeqReads
	cDiskWrites
	cDiskBusyMS // simulated latency charged
	cPoolHits
	cPoolMisses
	cPoolEvictions
	cRowsSent
	cBatchesSent
	cErrorsSent
	cWALBytes
	cDeviceBytes
	cMallocs
	cAllocBytes
	cGCs
	cGCPauseMS
	numCounters
)

// snapshot is every counter at one instant, and the peak RSS so far.
type snapshot struct {
	c     [numCounters]float64
	rssMB float64
}

// since returns the counters' growth from an earlier snapshot.
func (b snapshot) since(a snapshot) (d [numCounters]float64) {
	for i := range d {
		d[i] = b.c[i] - a.c[i]
	}
	return d
}

func (in *instance) snap() snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	sm := in.db.Engine().Runtime().SM
	rt, dk, pool, srv := in.db.Stats(), in.db.DiskStats(), sm.Pool.Stats(), in.srv.Stats()
	s := snapshot{rssMB: peakRSSMB()}
	for op, n := range rt.SharesByOp {
		s.c[cShares] += float64(n)
		if op == plan.OpTableScan {
			s.c[cScanShares] += float64(n)
		}
	}
	s.c[cCPUms] = ms(cpuTime())
	s.c[cShed], s.c[cTimeouts] = float64(rt.Shed), float64(rt.DeadlineTimeouts)
	s.c[cDeadlocks], s.c[cMaterialized] = float64(rt.DeadlocksSeen), float64(rt.Materialized)
	s.c[cDiskReads], s.c[cDiskSeqReads] = float64(dk.Reads), float64(dk.SeqReads)
	s.c[cDiskWrites], s.c[cDiskBusyMS] = float64(dk.Writes), ms(dk.SleepTotal)
	s.c[cPoolHits], s.c[cPoolMisses], s.c[cPoolEvictions] = float64(pool.Hits), float64(pool.Misses), float64(pool.Evictions)
	s.c[cRowsSent], s.c[cBatchesSent], s.c[cErrorsSent] = float64(srv.RowsSent), float64(srv.BatchesSent), float64(srv.ErrorsSent)
	s.c[cWALBytes], s.c[cDeviceBytes] = float64(walBytes(sm.WAL().LSN())), float64(deviceWriteBytes())
	s.c[cMallocs], s.c[cAllocBytes] = float64(m.Mallocs), float64(m.TotalAlloc)
	s.c[cGCs], s.c[cGCPauseMS] = float64(m.NumGC), float64(m.PauseTotalNs)/1e6
	return s
}

// walBytes turns an LSN (segment<<32 | offset) into a byte position, taking
// every segment as full-sized; a batch that overruns a segment's end makes
// that slightly short, which is noise against thousands of commits.
func walBytes(lsn int64) int64 {
	const segBytes = 256 * 8192 // wal and disk defaults
	return (lsn>>32)*segBytes + (lsn & 0xffffffff)
}
