// Package page implements the slotted-page layout used by heap files and
// B+tree nodes. A page is a fixed-size byte array with a small header, a slot
// directory growing from the front and tuple payloads growing from the back —
// the classic layout every disk-based storage manager (including BerkeleyDB,
// the paper's substrate) uses.
//
// Layout:
//
//	[0:2)   uint16 slot count
//	[2:4)   uint16 free-space offset (start of payload region)
//	[4:4+4n) per-slot: uint16 payload offset, uint16 payload length
//	[...]   free space
//	[off:]  payloads (packed toward the end)
package page

import (
	"encoding/binary"
	"fmt"
	"math"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/tuple"
)

const headerSize = 4
const slotSize = 4

// Page wraps a fixed-size buffer with slotted-tuple accessors.
type Page struct {
	buf []byte
}

// New initializes an empty page over a zeroed buffer of the given size.
func New(size int) *Page {
	p := &Page{buf: make([]byte, size)}
	p.setFreeOff(uint16(size))
	return p
}

// FromBytes interprets an existing buffer as a page (no copy).
func FromBytes(buf []byte) *Page { return &Page{buf: buf} }

// Bytes returns the underlying buffer.
func (p *Page) Bytes() []byte { return p.buf }

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.buf) }

// NumSlots returns the number of tuples stored in the page.
func (p *Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }

func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.buf[0:2], n) }

func (p *Page) freeOff() uint16 { return binary.LittleEndian.Uint16(p.buf[2:4]) }

func (p *Page) setFreeOff(v uint16) { binary.LittleEndian.PutUint16(p.buf[2:4], v) }

func (p *Page) slot(i int) (off, ln uint16) {
	base := headerSize + i*slotSize
	return binary.LittleEndian.Uint16(p.buf[base : base+2]),
		binary.LittleEndian.Uint16(p.buf[base+2 : base+4])
}

func (p *Page) setSlot(i int, off, ln uint16) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:base+2], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], ln)
}

// FreeSpace returns the bytes available for one more insert (payload+slot).
func (p *Page) FreeSpace() int {
	used := headerSize + p.NumSlots()*slotSize
	free := int(p.freeOff()) - used
	if free < slotSize {
		return 0
	}
	return free - slotSize
}

// HasRoomFor reports whether a payload of n bytes fits.
func (p *Page) HasRoomFor(n int) bool { return p.FreeSpace() >= n }

// Insert appends a payload, returning its slot number.
func (p *Page) Insert(payload []byte) (int, error) {
	if !p.HasRoomFor(len(payload)) {
		return 0, fmt.Errorf("page: full (free=%d, need=%d)", p.FreeSpace(), len(payload))
	}
	n := p.NumSlots()
	off := p.freeOff() - uint16(len(payload))
	copy(p.buf[off:], payload)
	p.setSlot(n, off, uint16(len(payload)))
	p.setFreeOff(off)
	p.setNumSlots(uint16(n + 1))
	return n, nil
}

// Payload returns the raw bytes of slot i (aliasing the page buffer).
func (p *Page) Payload(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("page: slot %d out of range [0,%d)", i, p.NumSlots())
	}
	off, ln := p.slot(i)
	return p.buf[off : off+ln], nil
}

// Tombstone reports whether slot i holds a deleted tuple. Slot numbers are
// stable identifiers (RIDs reference them), so deletion zeroes the slot
// entry instead of compacting the directory; payloads grow from the page
// end, so offset 0 can never belong to a live payload.
func (p *Page) Tombstone(i int) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	off, ln := p.slot(i)
	return off == 0 && ln == 0
}

// DeleteAt tombstones slot i. The payload bytes become dead space until the
// next ReplaceAt repacks the page. Deleting a tombstone is a no-op (replay
// idempotence).
func (p *Page) DeleteAt(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range [0,%d)", i, p.NumSlots())
	}
	p.setSlot(i, 0, 0)
	return nil
}

// MaxPayload is the largest payload a page of the given size can hold.
func MaxPayload(size int) int { return size - headerSize - slotSize }

// repackBytes returns what a repack of the page needs: the header, the slot
// directory and every live payload (a tombstone's length is zero).
func (p *Page) repackBytes() int {
	n := p.NumSlots()
	need := headerSize + n*slotSize
	for s := 0; s < n; s++ {
		_, ln := p.slot(s)
		need += int(ln)
	}
	return need
}

// checkReplace is ReplaceAt's precondition: slot i is live and the page,
// repacked from need bytes with slot i's payload n bytes long, still fits.
// It returns the bytes the repacked page would need.
func (p *Page) checkReplace(i, n, need int) (int, error) {
	if i < 0 || i >= p.NumSlots() {
		return 0, fmt.Errorf("page: slot %d out of range [0,%d)", i, p.NumSlots())
	}
	if p.Tombstone(i) {
		return 0, fmt.Errorf("page: slot %d is deleted", i)
	}
	_, old := p.slot(i)
	need += n - int(old)
	if need > len(p.buf) {
		return 0, fmt.Errorf("page: replacement of %d bytes in slot %d does not fit (need %d, page %d)", n, i, need, len(p.buf))
	}
	return need, nil
}

// Replacement names a slot and the length of the payload an update gives it.
type Replacement struct{ Slot, Len int }

// CheckMutations reports, without modifying the page, whether DeleteAt for
// each slot of deletes followed by ReplaceAt for each of updates, in order,
// would all succeed — the same arithmetic, step by step, so a nil result is
// a promise. The storage manager asks before it logs a commit.
func (p *Page) CheckMutations(deletes []int, updates []Replacement) error {
	need := p.repackBytes()
	for _, s := range deletes {
		if s < 0 || s >= p.NumSlots() {
			return fmt.Errorf("page: slot %d out of range [0,%d)", s, p.NumSlots())
		}
		_, ln := p.slot(s)
		need -= int(ln)
	}
	for _, u := range updates {
		var err error
		if need, err = p.checkReplace(u.Slot, u.Len, need); err != nil {
			return err
		}
	}
	return nil
}

// ReplaceAt overwrites slot i's payload, repacking the whole page: live
// payloads (with slot i's replaced) are rewritten from the back, slot
// numbers preserved, tombstones kept as tombstones and their dead space
// reclaimed. Fails without modifying the page if the new payload does not
// fit.
func (p *Page) ReplaceAt(i int, payload []byte) error {
	if _, err := p.checkReplace(i, len(payload), p.repackBytes()); err != nil {
		return err
	}
	n := p.NumSlots()
	payloads := make([][]byte, n)
	for s := 0; s < n; s++ {
		if p.Tombstone(s) {
			continue
		}
		if s == i {
			payloads[s] = payload
		} else {
			raw, err := p.Payload(s)
			if err != nil {
				return err
			}
			// Copy: the repack below overwrites the payload region the raw
			// slices alias.
			payloads[s] = append([]byte(nil), raw...)
		}
	}
	off := uint16(len(p.buf))
	for s := 0; s < n; s++ {
		if p.Tombstone(s) {
			continue
		}
		off -= uint16(len(payloads[s]))
		copy(p.buf[off:], payloads[s])
		p.setSlot(s, off, uint16(len(payloads[s])))
	}
	p.setFreeOff(off)
	return nil
}

// InsertTuple encodes and inserts a tuple, returning its slot number.
// Bulk loaders should prefer InsertTupleScratch, which reuses one encode
// buffer across rows instead of allocating per insert.
func (p *Page) InsertTuple(t tuple.Tuple) (int, error) {
	return p.Insert(t.Encode(nil))
}

// InsertTupleScratch encodes t into scratch (grown as needed) and inserts
// it, returning the slot number and the scratch buffer for the next row.
func (p *Page) InsertTupleScratch(t tuple.Tuple, scratch []byte) (int, []byte, error) {
	scratch = t.Encode(scratch[:0])
	slot, err := p.Insert(scratch)
	return slot, scratch, err
}

// Tuple decodes the tuple in slot i, which must have ncols columns.
func (p *Page) Tuple(i, ncols int) (tuple.Tuple, error) {
	raw, err := p.Payload(i)
	if err != nil {
		return nil, err
	}
	t, _, err := tuple.Decode(raw, ncols)
	return t, err
}

// CorruptError reports page bytes that do not follow the slotted layout.
type CorruptError struct{ Reason string }

// Error implements error.
func (e *CorruptError) Error() string { return "page: corrupt: " + e.Reason }

// Locate derives the layout of a page of rows of ncols columns: every live
// slot in slot order, tombstones skipped, each column located in the page
// (tuple.Offsets). It makes every check a reader of the bytes needs, once — a
// directory or slot that overruns the buffer is a *CorruptError, a value with
// a bad tag or a truncated width a *tuple.EncodingError — so whoever holds
// the result indexes the page unchecked — and decodes the numbers of every
// kind-uniform column into the layout's vectors (tuple.Vectors). The buffer
// pool keeps it beside the frame (buffer.Pool.PinLocated).
func Locate(buf []byte, ncols int) (*buffer.Layout, error) {
	if len(buf) < headerSize {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d bytes are shorter than the header", len(buf))}
	}
	if len(buf) > math.MaxUint16 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d bytes are more than a 16-bit offset addresses", len(buf))}
	}
	p := Page{buf: buf}
	n := p.NumSlots()
	if headerSize+n*slotSize > len(buf) {
		return nil, &CorruptError{Reason: fmt.Sprintf("directory of %d slots overruns the %d-byte page", n, len(buf))}
	}
	stride := ncols + 1
	l := &buffer.Layout{Offs: make([]uint16, 0, n*stride)}
	for i := 0; i < n; i++ {
		off, ln := p.slot(i)
		if off == 0 && ln == 0 {
			continue
		}
		if int(off)+int(ln) > len(buf) {
			return nil, &CorruptError{Reason: fmt.Sprintf("slot %d (%d bytes at %d) overruns the %d-byte page", i, ln, off, len(buf))}
		}
		l.Offs = l.Offs[:len(l.Offs)+stride]
		if err := tuple.Offsets(buf[off:off+ln], int(off), l.Offs[l.Rows*stride:]); err != nil {
			return nil, err
		}
		l.Rows++
	}
	l.Kinds, l.Vecs = tuple.Vectors(buf, l.Offs, l.Rows, ncols)
	return l, nil
}

// Tuples decodes every live tuple in the page, skipping tombstoned slots
// (the returned list is compacted, so positions do not correspond to slot
// numbers — use Tombstone/Tuple for RID-accurate iteration). All rows carve
// out of one arena chunk (one allocation per page rather than one per row);
// they are independent of the page buffer and immutable. The scan µEngine
// does not come through here (it works on the encoded rows, see Locate, with
// which this shares no code); the callers are the iterator engine, spill
// readers, victim search and the benchmark's kernels.
func (p *Page) Tuples(ncols int) ([]tuple.Tuple, error) {
	n := p.NumSlots()
	out := make([]tuple.Tuple, 0, n)
	var arena tuple.RowArena
	arena.Grow(n * ncols)
	for i := 0; i < n; i++ {
		if p.Tombstone(i) {
			continue
		}
		raw, err := p.Payload(i)
		if err != nil {
			return nil, err
		}
		t, _, err := tuple.DecodeArena(raw, ncols, &arena)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
