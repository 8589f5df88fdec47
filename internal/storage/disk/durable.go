// Durability model for the simulated device. Writes (Append/Write) land in
// a volatile region first, exactly like a real disk's write cache: they are
// visible to subsequent reads but do not survive a crash until a sync
// promotes them. Crash() reconstructs the image a real machine would reboot
// with, which is what the WAL's recovery path is tested against: the
// crash-point harness drops volatile state (the strict model, nothing
// un-fsynced survives), keeps it (the lenient model, the write cache made
// it to the platter anyway) or keeps an ascending prefix of it (a persist
// interrupted between block writes) — recovery must land on the committed
// prefix under all three.
//
// With Config.BackingDir set, durable state is additionally mirrored to real
// OS files, so a kill -9 of the whole process can be recovered from by a
// fresh process pointed at the same directory. The volatile blocks of the
// model — durable blocks overwritten since the last sync plus blocks
// appended past the durable length — are exactly the blocks the backing
// file lacks, so a sync writes those and nothing else. There are two ways
// to write them, chosen by the caller:
//
//   - Sync replaces the backing file atomically (temp file, fsync, rename)
//     and skips a file with nothing to write. Heap and index files need
//     this: UPDATE and DELETE overwrite pages that an earlier sync made
//     durable, and a slotted page torn between its old and new image is
//     not recoverable.
//   - SyncInPlace writes the blocks into the backing file where they are
//     and fsyncs. Only the write-ahead log may use it; its doc comment says
//     why that is safe there.
package disk

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// CrashMode selects what a simulated crash does to volatile (un-synced)
// state.
type CrashMode int

const (
	// CrashDropVolatile discards everything not promoted by a sync:
	// un-synced appends vanish, overwritten blocks revert to their durable
	// image, and files never synced disappear entirely. The strict model.
	CrashDropVolatile CrashMode = iota
	// CrashKeepVolatile keeps volatile writes — the device's write cache
	// happened to reach the platter before power loss. Recovery must not be
	// confused by data beyond the last fsync (torn or unreferenced tails).
	CrashKeepVolatile
	// CrashKeepPrefix keeps, per file, the first k of its volatile blocks in
	// ascending block order (k drawn from CrashSeeded's seed) and drops the
	// rest: the image a persist that writes blocks in ascending order leaves
	// when it is killed between two of them.
	CrashKeepPrefix
)

func (m CrashMode) String() string {
	switch m {
	case CrashKeepVolatile:
		return "keep-volatile"
	case CrashKeepPrefix:
		return "keep-prefix"
	}
	return "drop-volatile"
}

// markOverwriteLocked saves the durable image of a block about to be
// overwritten, so a crash can restore it. Caller holds f.mu.
func (f *file) markOverwriteLocked(blockNo int64) {
	if blockNo >= f.durableLen {
		return // block is itself volatile; nothing durable to preserve
	}
	if f.saved == nil {
		f.saved = make(map[int64][]byte)
	}
	if _, ok := f.saved[blockNo]; !ok {
		img := make([]byte, len(f.blocks[blockNo]))
		copy(img, f.blocks[blockNo])
		f.saved[blockNo] = img
	}
}

// volatileLocked lists the file's volatile blocks in ascending order:
// overwritten durable blocks, then blocks past the durable length. Caller
// holds f.mu.
func (f *file) volatileLocked() []int64 {
	nos := make([]int64, 0, len(f.saved)+len(f.blocks)-int(f.durableLen))
	for no := range f.saved {
		nos = append(nos, no)
	}
	slices.Sort(nos)
	for no := f.durableLen; no < int64(len(f.blocks)); no++ {
		nos = append(nos, no)
	}
	return nos
}

// Sync promotes all of the named file's blocks to durable, the simulated
// fsync. With a backing directory configured, the durable image replaces the
// OS file atomically (see persist) — unless the file has no volatile block
// and the backing file already has its length, in which case nothing is
// written. Injected write faults apply: a failed fsync leaves durability
// exactly where it was.
func (d *Disk) Sync(name string) error {
	f, err := d.beginSync(name)
	if err != nil {
		return err
	}
	defer f.persistMu.Unlock()
	f.mu.Lock()
	nblocks := int64(len(f.blocks))
	write := d.cfg.BackingDir != "" && !(f.durableExists && len(f.saved) == 0 && f.durableLen == nblocks && f.backed == nblocks)
	f.durableLen = nblocks
	f.durableExists = true
	f.saved = nil
	var img []byte
	if write {
		img = make([]byte, 0, len(f.blocks)*d.cfg.BlockSize)
		for _, b := range f.blocks {
			img = append(img, b...)
		}
	}
	f.mu.Unlock()
	d.writes.Add(1)
	d.charge(time.Duration(d.writeLat.Load()))
	if !write {
		return nil
	}
	// The rename below gives the name a new inode; a handle kept from an
	// earlier SyncInPlace would go on writing the old one.
	if err := f.closeHandle(); err != nil {
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	f.backed = -1
	if err := d.persist(name, img); err != nil {
		return err
	}
	f.backed = nblocks
	return nil
}

// beginSync is the common start of both syncs: it resolves the file, lets
// an injected write fault fire before anything changes, and returns with
// f.persistMu held.
func (d *Disk) beginSync(name string) (*file, error) {
	f, err := d.get(name)
	if err != nil {
		return nil, err
	}
	if ferr := d.takeWriteFault(name); ferr != nil {
		return nil, ferr
	}
	f.persistMu.Lock()
	if f.retired {
		f.persistMu.Unlock()
		return nil, fmt.Errorf("disk: no such file %q", name)
	}
	return f, nil
}

// persist writes one file's durable image to the backing directory and
// fsyncs it (write to a temp name, fsync, rename — the standard atomic
// pattern, so a kill -9 mid-persist leaves the previous image intact).
func (d *Disk) persist(name string, img []byte) error {
	path := d.backingPath(name)
	tmp := path + ".tmp"
	fh, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	if _, err := fh.Write(img); err != nil {
		fh.Close()
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	return nil
}

// SyncInPlace is Sync for the write-ahead log: it promotes the file's
// volatile blocks to durable and, with a backing directory, writes just
// those blocks into the backing file through a handle kept open across
// calls — in ascending block order, then an ftruncate if the file shrank,
// then one fsync. The cost is proportional to what changed since the last
// sync, not to the size of the file.
//
// The contract that makes writing in place safe, and the reason only the
// log may do it: (1) the log never changes a byte of a record it has made
// durable — a tail block is rewritten with a byte-wise extension of what it
// held, the old content a prefix of the new, zero padded; (2) every record
// is CRC-framed and wal.Open ends the log at the first bad frame. A kill -9
// inside this call can therefore leave any mix of old and new pieces of the
// blocks being written, and the file still decodes to at least every record
// an earlier, completed SyncInPlace acknowledged; the records of the
// interrupted call were never acknowledged to anyone. Files whose durable
// blocks are overwritten with different content (heaps, indexes) must use
// Sync.
//
// between, when non-nil, is called between the promotion of consecutive
// volatile blocks; the crash harness panics there to leave an ascending
// prefix of them durable. It runs with the file's locks held and must not
// call back into the device. The handle is released by ReleaseHandle, Remove,
// Create over the same name, and Close.
func (d *Disk) SyncInPlace(name string, between func()) error {
	f, err := d.beginSync(name)
	if err != nil {
		return err
	}
	defer f.persistMu.Unlock()
	nos, nblocks := d.promoteInPlace(f, between)
	d.writes.Add(1)
	d.charge(time.Duration(d.writeLat.Load()))
	if d.cfg.BackingDir == "" {
		return nil
	}
	truncate := f.backed < 0 || f.backed > nblocks
	if len(nos) == 0 && !truncate {
		// Nothing volatile: an earlier call, which ran to its fsync under
		// persistMu, already made the backing file equal to this image.
		return nil
	}
	f.backed = -1 // an error below leaves the backing file in an unknown state
	if err := d.writeInPlace(name, f, nos, truncate, nblocks); err != nil {
		return fmt.Errorf("disk: persist %q: %w", name, err)
	}
	f.backed = nblocks
	return nil
}

// promoteInPlace promotes f's volatile blocks one by one, in ascending
// order, and returns their numbers and the file's length; with a backing
// file their images are copied into f.pbuf, back to back, for writeInPlace
// (every block when the backing file's state is unknown). Snapshot and
// promotion happen under one hold of f.mu, so a write racing the sync
// dirties its block again. The deferred unlock keeps a panicking between
// from leaving f.mu held. Caller holds f.persistMu.
func (d *Disk) promoteInPlace(f *file, between func()) (nos []int64, nblocks int64) {
	backed := d.cfg.BackingDir != ""
	f.mu.Lock()
	defer f.mu.Unlock()
	nblocks = int64(len(f.blocks))
	f.durableExists = true
	if !backed && between == nil {
		f.durableLen = nblocks
		f.saved = nil
		return nil, nblocks
	}
	nos = f.volatileLocked()
	for i, no := range nos {
		if i > 0 && between != nil {
			between()
		}
		if no < f.durableLen {
			delete(f.saved, no)
		} else {
			f.durableLen = no + 1
		}
	}
	if !backed {
		return nil, nblocks
	}
	if f.backed < 0 {
		nos = nos[:0]
		for no := int64(0); no < nblocks; no++ {
			nos = append(nos, no)
		}
	}
	f.pbuf = f.pbuf[:0]
	for _, no := range nos {
		f.pbuf = append(f.pbuf, f.blocks[no]...)
	}
	return nos, nblocks
}

// writeInPlace writes the block images in f.pbuf (block numbers nos,
// ascending) into the backing file, one pwrite per run of consecutive
// blocks, truncates it to nblocks blocks when asked, and fsyncs. Caller
// holds f.persistMu.
func (d *Disk) writeInPlace(name string, f *file, nos []int64, truncate bool, nblocks int64) error {
	bs := int64(d.cfg.BlockSize)
	if f.fh == nil {
		fh, err := os.OpenFile(d.backingPath(name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		f.fh = fh
	}
	for i := 0; i < len(nos); {
		j := i + 1
		for j < len(nos) && nos[j] == nos[j-1]+1 {
			j++
		}
		if _, err := f.fh.WriteAt(f.pbuf[int64(i)*bs:int64(j)*bs], nos[i]*bs); err != nil {
			return err
		}
		i = j
	}
	if truncate {
		if err := f.fh.Truncate(nblocks * bs); err != nil {
			return err
		}
	}
	return f.fh.Sync()
}

// closeHandle closes the kept-open backing handle, if any. Caller holds
// f.persistMu.
func (f *file) closeHandle() error {
	if f.fh == nil {
		return nil
	}
	err := f.fh.Close()
	f.fh, f.pbuf = nil, nil
	return err
}

// retire closes a file's backing handle and makes any sync still queued on
// the old *file fail instead of re-creating a backing file under the name.
// Called (with d.mu held) when the name is removed or created over.
func (f *file) retire() {
	f.persistMu.Lock()
	defer f.persistMu.Unlock()
	f.retired = true
	_ = f.closeHandle() // every SyncInPlace already fsynced what it wrote
}

// ReleaseHandle closes the backing handle SyncInPlace keeps for the file.
// The log calls it after a segment's final sync; a later SyncInPlace simply
// reopens the file. No-op for a missing file or one without a handle.
func (d *Disk) ReleaseHandle(name string) error {
	f, err := d.get(name)
	if err != nil {
		return nil
	}
	f.persistMu.Lock()
	defer f.persistMu.Unlock()
	return f.closeHandle()
}

// Close releases every backing handle. The device stays usable (handles
// reopen on demand); a database closes it last so no descriptor outlives it.
func (d *Disk) Close() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var first error
	for _, f := range d.files {
		f.persistMu.Lock()
		if err := f.closeHandle(); err != nil && first == nil {
			first = err
		}
		f.persistMu.Unlock()
	}
	return first
}

// backingPath maps a device file name to an OS path. ':' separates
// namespaces in device names; it is legal in Linux filenames, but '%' keeps
// the mapping unambiguous anyway.
func (d *Disk) backingPath(name string) string {
	return filepath.Join(d.cfg.BackingDir, strings.ReplaceAll(name, "/", "%2F"))
}

// loadBacking populates the device from an existing backing directory: every
// regular file becomes a durable device file. Called by Open.
func (d *Disk) loadBacking() error {
	entries, err := os.ReadDir(d.cfg.BackingDir)
	if err != nil {
		if os.IsNotExist(err) {
			return os.MkdirAll(d.cfg.BackingDir, 0o755)
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		name := strings.ReplaceAll(e.Name(), "%2F", "/")
		img, err := os.ReadFile(filepath.Join(d.cfg.BackingDir, e.Name()))
		if err != nil {
			return err
		}
		f := newFile()
		for off := 0; off < len(img); off += d.cfg.BlockSize {
			end := off + d.cfg.BlockSize
			if end > len(img) {
				end = len(img)
			}
			b := make([]byte, d.cfg.BlockSize)
			copy(b, img[off:end])
			f.blocks = append(f.blocks, b)
		}
		f.durableLen = int64(len(f.blocks))
		f.durableExists = true
		if len(img)%d.cfg.BlockSize == 0 {
			f.backed = f.durableLen
		}
		d.files[name] = f
	}
	return nil
}

// Crash reconstructs the post-crash image in place: volatile state is
// resolved per mode, and what survives becomes the new durable baseline
// (the rebooted machine's disk contents). Callers discard every layer above
// the disk (pools, managers, WAL handles) and re-open. Crash models the
// device alone: it does not touch a backing directory.
func (d *Disk) Crash(mode CrashMode) { d.CrashSeeded(mode, 0) }

// CrashSeeded is Crash with the seed CrashKeepPrefix draws each file's
// prefix length from (files are visited in name order, so a seed replays).
func (d *Disk) CrashSeeded(mode CrashMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := d.files[name]
		f.mu.Lock()
		vol := f.volatileLocked()
		keep := 0
		switch mode {
		case CrashKeepVolatile:
			keep = len(vol)
		case CrashKeepPrefix:
			keep = rng.Intn(len(vol) + 1)
		}
		// A file never synced exists only if the crash let some of it through.
		if !f.durableExists && (mode == CrashDropVolatile || (keep == 0 && len(vol) > 0)) {
			f.mu.Unlock()
			delete(d.files, name)
			continue
		}
		end := int64(len(f.blocks))
		for _, no := range vol[keep:] {
			if no < f.durableLen {
				copy(f.blocks[no], f.saved[no])
			} else if no < end {
				end = no
			}
		}
		f.blocks = f.blocks[:end]
		f.durableLen = end
		f.durableExists = true
		f.saved = nil
		f.mu.Unlock()
	}
}

// Truncate shrinks a file to nblocks blocks (a recovery-time operation: the
// restart discards log/heap tails beyond the recovered prefix). Growing is
// not supported; truncating past the end is a no-op. The backing file
// shrinks at the file's next sync.
func (d *Disk) Truncate(name string, nblocks int64) error {
	f, err := d.get(name)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if nblocks < 0 {
		nblocks = 0
	}
	if nblocks < int64(len(f.blocks)) {
		f.blocks = f.blocks[:nblocks]
	}
	if f.durableLen > int64(len(f.blocks)) {
		f.durableLen = int64(len(f.blocks))
	}
	for no := range f.saved {
		if no >= int64(len(f.blocks)) {
			delete(f.saved, no)
		}
	}
	return nil
}
