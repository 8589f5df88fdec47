// Package wal implements the write-ahead log: an append-only, segmented,
// CRC-framed record log over the simulated disk, with group commit and an
// explicit fsync boundary (disk.SyncInPlace: a flush writes the blocks it
// changed, not the segment). The log is the durability story for
// the whole engine — a transaction is committed exactly when its commit
// record is flushed, and recovery redoes committed transactions from here.
//
// Running over the simulated device means the fault machinery applies to
// the log itself: InjectWriteFaults("wal:", ...) makes log appends or
// fsyncs fail, and disk.Crash reconstructs the post-crash image the
// recovery path must handle. The Hook field names every crash site the
// crash-point harness (wal/crashtest) enumerates.
package wal

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"qpipe/internal/storage/disk"
)

// Options sizes the log.
type Options struct {
	// SegmentBlocks is the number of disk blocks per log segment; the log
	// rotates to a fresh segment file once the current one reaches it
	// (0 = 256). Checkpoints delete segments older than the one holding the
	// checkpoint record.
	SegmentBlocks int
}

// segPrefix namespaces log files on the shared device; fault injection on
// "wal:" targets exactly the log.
const segPrefix = "wal:"

func segName(n int) string { return fmt.Sprintf("%s%08d", segPrefix, n) }

// Entry is one record to append: a type and an opaque payload.
type Entry struct {
	Type    RecordType
	Payload []byte
}

// Log is the write-ahead log. Append/Flush/Checkpoint are safe for
// concurrent use.
type Log struct {
	d         *disk.Disk
	bs        int // device block size
	segBlocks int

	// Hook, when non-nil, is called at named crash sites (see the site
	// constants in crashtest): "append:mid-record" between block writes of
	// a spanning record, "append:post-record-pre-fsync" after a batch is on
	// disk but before any fsync, "sync:mid-persist" inside a segment sync
	// between two of the blocks it makes durable, "rotate:pre-sync"/
	// "rotate:pre-create"/"rotate:post-create" inside segment rotation, and
	// "checkpoint:pre-record"/"checkpoint:pre-sync"/"checkpoint:
	// pre-truncate" inside a checkpoint. The harness installs a hook that
	// panics at its target site, simulating a kill there. Install before
	// concurrent use.
	Hook func(site string)

	mu          sync.Mutex
	cond        *sync.Cond
	segs        []int  // segment numbers, ascending; last is current
	fullBlocks  int64  // complete blocks in the current segment
	tail        []byte // bytes of the partial tail block (already on disk, padded)
	tailBlockNo int64  // disk block holding tail, -1 if tail is empty
	durableLSN  int64
	flushing    bool
	err         error // sticky: a failed log write poisons the handle

	ckptPayload []byte
	ckptLSN     int64
	hasCkpt     bool

	scratch []byte // record-encoding buffer, reused across Appends
	block   []byte // one block being assembled for the device, which copies it
}

// lsn packs a segment number and byte offset into one ordered value.
func lsn(segNo int, off int64) int64 { return int64(segNo)<<32 | off }

func (l *Log) hook(site string) {
	if l.Hook != nil {
		l.Hook(site)
	}
}

// syncSegment makes a segment durable: the one fsync of a flush.
func (l *Log) syncSegment(seg string) error {
	if l.Hook == nil {
		return l.d.SyncInPlace(seg, nil)
	}
	return l.d.SyncInPlace(seg, func() { l.Hook("sync:mid-persist") })
}

// Open binds to the device's log, creating an empty one if none exists.
// Existing segments are scanned to find the end of the valid record stream
// (a torn tail in the final segment is where the log ends); the last
// checkpoint's payload is retained for Checkpointed. The write position
// resumes exactly after the last intact record.
func Open(d *disk.Disk, opts Options) (*Log, error) {
	if opts.SegmentBlocks <= 0 {
		opts.SegmentBlocks = 256
	}
	l := &Log{d: d, bs: d.BlockSize(), segBlocks: opts.SegmentBlocks, tailBlockNo: -1}
	l.block = make([]byte, l.bs)
	l.cond = sync.NewCond(&l.mu)
	segs, err := listSegments(d)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		d.Create(segName(1))
		l.segs = []int{1}
		return l, nil
	}
	l.segs = segs
	// Scan every segment; only the last may be torn.
	for i, n := range segs {
		last := i == len(segs)-1
		end, err := l.scanSegment(n, -1, func(r Record) error {
			if r.Type == TypeCheckpoint {
				l.ckptPayload = append([]byte(nil), r.Payload...)
				l.ckptLSN = r.LSN
				l.hasCkpt = true
			}
			return nil
		})
		if err != nil {
			var corrupt *CorruptRecordError
			if last && errors.As(err, &corrupt) {
				// Torn tail: the log ends at the last intact record.
			} else {
				return nil, err
			}
		}
		if last {
			l.fullBlocks = end / int64(l.bs)
			tailLen := int(end % int64(l.bs))
			if tailLen > 0 {
				raw, err := d.Read(segName(n), l.fullBlocks)
				if err != nil {
					return nil, err
				}
				l.tail = append(l.tail[:0], raw[:tailLen]...)
				l.tailBlockNo = l.fullBlocks
				// Re-pad the tail block so garbage beyond the valid prefix
				// (a torn record) cannot survive next to fresh appends.
				if err := l.writeTailLocked(segName(n)); err != nil {
					return nil, err
				}
				if err := d.Truncate(segName(n), l.fullBlocks+1); err != nil {
					return nil, err
				}
			} else {
				if err := d.Truncate(segName(n), l.fullBlocks); err != nil {
					return nil, err
				}
			}
		}
	}
	return l, nil
}

func listSegments(d *disk.Disk) ([]int, error) {
	var segs []int
	for _, name := range d.FilesWithPrefix(segPrefix) {
		n, err := strconv.Atoi(strings.TrimPrefix(name, segPrefix))
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q", name)
		}
		segs = append(segs, n)
	}
	return segs, nil // FilesWithPrefix sorts; zero-padded names sort numerically
}

// Checkpointed returns the most recent checkpoint's payload and LSN
// (ok=false when the log has none).
func (l *Log) Checkpointed() (payload []byte, at int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptPayload, l.ckptLSN, l.hasCkpt
}

// LSN returns the current end-of-log position.
func (l *Log) LSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsnLocked()
}

// DurableLSN returns the position up to which the log is known durable.
func (l *Log) DurableLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

func (l *Log) lsnLocked() int64 {
	return lsn(l.segs[len(l.segs)-1], l.fullBlocks*int64(l.bs)+int64(len(l.tail)))
}

// Append writes one atomic batch of records to the log (contiguous, in
// order — a transaction's net effect plus its commit record). It returns
// the batch's start and end LSNs. The records are on the device but NOT
// durable until Flush(end) returns.
func (l *Log) Append(entries []Entry) (start, end int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, 0, l.err
	}
	if err := l.rotateLocked(); err != nil {
		return 0, 0, err
	}
	buf := l.scratch[:0]
	for _, e := range entries {
		buf = AppendRecord(buf, e.Type, e.Payload)
	}
	l.scratch = buf
	start = l.lsnLocked()
	seg := segName(l.segs[len(l.segs)-1])
	for int64(len(l.tail))+int64(len(buf)) >= int64(l.bs) {
		take := l.bs - len(l.tail)
		block := append(append(l.block[:0], l.tail...), buf[:take]...)
		if werr := l.writeBlockLocked(seg, block); werr != nil {
			l.err = werr
			return 0, 0, werr
		}
		buf = buf[take:]
		l.tail = l.tail[:0]
		if len(buf) > 0 {
			l.hook("append:mid-record")
		}
	}
	if len(buf) > 0 {
		l.tail = append(l.tail, buf...)
		if werr := l.writeTailLocked(seg); werr != nil {
			l.err = werr
			return 0, 0, werr
		}
	}
	end = l.lsnLocked()
	l.hook("append:post-record-pre-fsync")
	return start, end, nil
}

// writeBlockLocked writes one full block at the current append position:
// overwriting the previously-partial tail block if there is one, else
// appending a fresh block. Advances fullBlocks.
func (l *Log) writeBlockLocked(seg string, block []byte) error {
	if l.tailBlockNo >= 0 {
		if err := l.d.Write(seg, l.tailBlockNo, block); err != nil {
			return err
		}
	} else {
		if _, err := l.d.Append(seg, block); err != nil {
			return err
		}
	}
	l.tailBlockNo = -1
	l.fullBlocks++
	return nil
}

// writeTailLocked writes the partial tail block to disk (the device pads it
// with zeros).
func (l *Log) writeTailLocked(seg string) error {
	if len(l.tail) == 0 {
		return nil
	}
	block := l.tail
	if l.tailBlockNo >= 0 {
		return l.d.Write(seg, l.tailBlockNo, block)
	}
	if _, err := l.d.Append(seg, block); err != nil {
		return err
	}
	l.tailBlockNo = l.fullBlocks
	return nil
}

// rotateLocked starts a fresh segment when the current one is full. The old
// segment is fsynced first — its records may include flushed commits, and a
// segment is never written again after rotation, so its backing handle is
// released with that final sync.
func (l *Log) rotateLocked() error {
	if l.fullBlocks < int64(l.segBlocks) {
		return nil
	}
	cur := l.segs[len(l.segs)-1]
	l.hook("rotate:pre-sync")
	err := l.syncSegment(segName(cur))
	if err == nil {
		err = l.d.ReleaseHandle(segName(cur))
	}
	if err != nil {
		l.err = err
		return err
	}
	if end := l.lsnLocked(); end > l.durableLSN {
		l.durableLSN = end
	}
	l.hook("rotate:pre-create")
	next := cur + 1
	l.d.Create(segName(next))
	l.segs = append(l.segs, next)
	l.fullBlocks = 0
	l.tail = l.tail[:0]
	l.tailBlockNo = -1
	l.hook("rotate:post-create")
	return nil
}

// Flush makes the log durable at least through pos — the group-commit
// point. Concurrent committers coalesce: one becomes the flush leader and
// fsyncs the current segment once for the whole cohort; the rest wait on
// the resulting durable horizon.
func (l *Log) Flush(pos int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durableLSN < pos {
		if l.err != nil {
			return l.err
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		l.flushing = true
		target := l.lsnLocked()
		seg := segName(l.segs[len(l.segs)-1])
		err := func() error {
			l.mu.Unlock()
			// Deferred, so a crash hook panicking inside the sync finds the
			// lock state Flush's own deferred Unlock expects and the waiting
			// committers are woken rather than stranded.
			defer func() {
				l.mu.Lock()
				l.flushing = false
				l.cond.Broadcast()
			}()
			return l.syncSegment(seg)
		}()
		if err != nil {
			l.err = err
			return err
		}
		if target > l.durableLSN {
			l.durableLSN = target
		}
	}
	return nil
}

// Checkpoint appends a checkpoint record carrying the caller's snapshot
// payload, flushes it, and deletes every segment older than the one holding
// the record — those records are now redundant with the snapshot. The
// caller (the storage manager) must have made the snapshotted state durable
// first and must exclude concurrent commits.
func (l *Log) Checkpoint(payload []byte) error {
	l.hook("checkpoint:pre-record")
	start, end, err := l.Append([]Entry{{Type: TypeCheckpoint, Payload: payload}})
	if err != nil {
		return err
	}
	l.hook("checkpoint:pre-sync")
	if err := l.Flush(end); err != nil {
		return err
	}
	l.hook("checkpoint:pre-truncate")
	home := int(start >> 32)
	l.mu.Lock()
	keep := l.segs[:0]
	var drop []int
	for _, n := range l.segs {
		if n < home {
			drop = append(drop, n)
		} else {
			keep = append(keep, n)
		}
	}
	l.segs = keep
	l.ckptPayload = append([]byte(nil), payload...)
	l.ckptLSN = start
	l.hasCkpt = true
	l.mu.Unlock()
	for _, n := range drop {
		l.d.Remove(segName(n))
	}
	return nil
}

// Scan replays the log's records in order, skipping any with LSN <= after
// (pass a checkpoint LSN to replay only what the checkpoint does not
// cover, or a negative value for everything). A corrupt record in the final
// segment is the torn tail — the scan ends cleanly there; anywhere else it
// is returned as the error.
func (l *Log) Scan(after int64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]int(nil), l.segs...)
	l.mu.Unlock()
	for i, n := range segs {
		_, err := l.scanSegment(n, after, fn)
		if err != nil {
			var corrupt *CorruptRecordError
			if i == len(segs)-1 && errors.As(err, &corrupt) {
				return nil
			}
			return err
		}
	}
	return nil
}

// scanSegment decodes one segment's record stream from the device,
// returning the byte offset where valid records end. fn is invoked for
// records with LSN > after.
func (l *Log) scanSegment(segNo int, after int64, fn func(Record) error) (end int64, err error) {
	name := segName(segNo)
	nb := l.d.NumBlocks(name)
	data := make([]byte, 0, nb*l.bs)
	for b := 0; b < nb; b++ {
		raw, err := l.d.Read(name, int64(b))
		if err != nil {
			return 0, err
		}
		data = append(data, raw...)
	}
	off := int64(0)
	for {
		rec, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			if derr == io.EOF {
				return off, nil
			}
			var corrupt *CorruptRecordError
			if errors.As(derr, &corrupt) {
				corrupt.LSN = lsn(segNo, off)
			}
			return off, derr
		}
		rec.LSN = lsn(segNo, off)
		if rec.LSN > after {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += int64(n)
	}
}
