package btree

import (
	"encoding/binary"
	"fmt"
	"math"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/tuple"
)

// The node layout of the package comment, as constants.
const (
	hdrSize    = 11 // kind, n, next
	slotSize   = 2  // one u16 directory entry
	plenSize   = 2  // a leaf entry's u16 payload length
	childSize  = 8  // an internal entry's i64 child page
	invalidPno = int64(-1)
)

// CorruptError reports node bytes that do not follow the layout: every read
// checks offsets and lengths against the page, so damaged or hostile bytes
// surface as this error, never as a panic or an out-of-range slice.
type CorruptError struct{ Reason string }

// Error implements error.
func (e *CorruptError) Error() string { return "btree: corrupt node: " + e.Reason }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// page is a read-only view of one node's bytes — a pinned buffer-pool
// frame. The read path searches and iterates it in place; nothing is
// decoded until a caller asks for a key or a row.
type page struct {
	b    []byte
	n    int
	leaf bool
}

func viewPage(b []byte) (page, error) {
	if len(b) < hdrSize {
		return page{}, corruptf("%d bytes are shorter than the header", len(b))
	}
	if b[0] > 1 {
		return page{}, corruptf("node kind %d", b[0])
	}
	n := int(binary.LittleEndian.Uint16(b[1:3]))
	if hdrSize+slotSize*n > len(b) {
		return page{}, corruptf("directory of %d slots overruns the page", n)
	}
	return page{b: b, n: n, leaf: b[0] == 1}, nil
}

func (p page) next() int64 { return int64(binary.LittleEndian.Uint64(p.b[3:11])) }

// keyWidth returns the encoded length of the key at the start of b.
func keyWidth(b []byte) (int, error) {
	w, err := tuple.ValueWidth(b)
	if err != nil {
		return 0, corruptf("key: %v", err)
	}
	return w, nil
}

// entry returns entry i's encoded key and its value: the payload of a leaf
// entry, the eight child-pointer bytes of an internal one. Both alias the
// page.
func (p page) entry(i int) (key, val []byte, err error) {
	off := int(binary.LittleEndian.Uint16(p.b[hdrSize+slotSize*i:]))
	if off < hdrSize+slotSize*p.n || off >= len(p.b) {
		return nil, nil, corruptf("slot %d points at offset %d", i, off)
	}
	w, err := keyWidth(p.b[off:])
	if err != nil {
		return nil, nil, err
	}
	key, rest := p.b[off:off+w], p.b[off+w:]
	if !p.leaf {
		if len(rest) < childSize {
			return nil, nil, corruptf("slot %d: truncated child pointer", i)
		}
		return key, rest[:childSize], nil
	}
	if len(rest) < plenSize {
		return nil, nil, corruptf("slot %d: truncated payload length", i)
	}
	n := int(binary.LittleEndian.Uint16(rest))
	if n > len(rest)-plenSize {
		return nil, nil, corruptf("slot %d: payload of %d bytes overruns the page", i, n)
	}
	return key, rest[plenSize : plenSize+n], nil
}

// locateLeaf derives the layout of a leaf whose payloads are rows of ncols
// columns: every check entry makes of every entry, and tuple.Offsets' of
// every row, made once for whoever indexes the page through the result, and
// the rows' number vectors (tuple.Vectors, as page.Locate derives them).
func locateLeaf(b []byte, ncols int) (*buffer.Layout, error) {
	if len(b) > math.MaxUint16 {
		return nil, corruptf("%d bytes are more than a 16-bit offset addresses", len(b))
	}
	p, err := viewPage(b)
	if err != nil {
		return nil, err
	}
	if !p.leaf {
		return nil, corruptf("not a leaf")
	}
	stride := ncols + 1
	l := &buffer.Layout{Rows: p.n, Offs: make([]uint16, p.n*stride)}
	for i := 0; i < p.n; i++ {
		key, payload, err := p.entry(i)
		if err != nil {
			return nil, err
		}
		at := int(binary.LittleEndian.Uint16(b[hdrSize+slotSize*i:])) + len(key) + plenSize
		if err := tuple.Offsets(payload, at, l.Offs[i*stride:(i+1)*stride]); err != nil {
			return nil, err
		}
	}
	l.Kinds, l.Vecs = tuple.Vectors(b, l.Offs, l.Rows, ncols)
	return l, nil
}

func (p page) child(i int) (int64, error) {
	_, val, err := p.entry(i)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(val)), nil
}

// lowerBound returns the first index whose key is >= probe (n when none).
func (p page) lowerBound(probe tuple.Value) (int, error) {
	lo, hi := 0, p.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		key, _, err := p.entry(mid)
		if err != nil {
			return 0, err
		}
		if tuple.CompareEncoded(key, probe) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// childFor returns the child to descend into for key k (the leftmost child
// for an invalid k). The descent is left-biased — it picks the child
// *before* the first separator >= k — so that runs of duplicate keys
// spanning a leaf boundary are found from their first occurrence (scans
// chain forward through leaf next-pointers).
func (p page) childFor(k tuple.Value) (int64, error) {
	if p.n == 0 {
		return 0, corruptf("empty internal node")
	}
	i := 0
	if k.IsValid() {
		var err error
		if i, err = p.lowerBound(k); err != nil {
			return 0, err
		}
		if i > 0 {
			i--
		}
	}
	return p.child(i)
}

// ---- Materialized nodes (the write path) ---------------------------------------

// entry and node are one node decoded for rewriting: Insert, splits and
// BulkLoad build or modify a node and encode it back.
type entry struct {
	key     tuple.Value
	payload []byte // leaf
	child   int64  // internal
}

type node struct {
	leaf    bool
	next    int64
	entries []entry
}

func keySize(k tuple.Value) int { return tuple.Tuple{k}.EncodedSize() }

// entrySize is what one entry occupies in a node, its slot included.
func entrySize(leaf bool, k tuple.Value, payloadLen int) int {
	if leaf {
		return slotSize + keySize(k) + plenSize + payloadLen
	}
	return slotSize + keySize(k) + childSize
}

func (n *node) entrySize(i int) int {
	return entrySize(n.leaf, n.entries[i].key, len(n.entries[i].payload))
}

func (n *node) size() int {
	sz := hdrSize
	for i := range n.entries {
		sz += n.entrySize(i)
	}
	return sz
}

// decodeNode materializes a node; payloads are copied, so the result stays
// valid while the page it came from is rewritten.
func decodeNode(buf []byte) (*node, error) {
	p, err := viewPage(buf)
	if err != nil {
		return nil, err
	}
	n := &node{leaf: p.leaf, next: p.next(), entries: make([]entry, p.n)}
	for i := range n.entries {
		key, val, err := p.entry(i)
		if err != nil {
			return nil, err
		}
		n.entries[i].key = tuple.DecodeValue(key)
		if p.leaf {
			n.entries[i].payload = append([]byte(nil), val...)
		} else {
			n.entries[i].child = int64(binary.LittleEndian.Uint64(val))
		}
	}
	return n, nil
}

// encode writes the node into buf, a full page buffer; a node that does not
// fit is an error and leaves buf untouched.
func (n *node) encode(buf []byte) error {
	if sz := n.size(); sz > len(buf) {
		return fmt.Errorf("btree: node of %d bytes does not fit a %d-byte block", sz, len(buf))
	}
	clear(buf)
	if n.leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(n.next))
	off := hdrSize + slotSize*len(n.entries)
	for i, e := range n.entries {
		binary.LittleEndian.PutUint16(buf[hdrSize+slotSize*i:], uint16(off))
		off += len(tuple.Tuple{e.key}.Encode(buf[off:off]))
		if n.leaf {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.payload)))
			off += plenSize + copy(buf[off+plenSize:], e.payload)
		} else {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.child))
			off += childSize
		}
	}
	return nil
}

// splitPoint picks where an overfull node divides into entries[:mid] and
// entries[mid:]: after the first entry that brings the left part to half
// the entry bytes, or before it when the left part would otherwise overflow
// a page. With every entry at most half a page (Tree.Fits) both parts then
// fit, whatever the mix of sizes.
func (n *node) splitPoint(blockSize int) int {
	total := n.size() - hdrSize
	last := len(n.entries) - 1
	left := 0
	for i := 0; i < last; i++ {
		sz := n.entrySize(i)
		if left+sz >= total/2 {
			if i > 0 && hdrSize+left+sz > blockSize {
				return i
			}
			return i + 1
		}
		left += sz
	}
	return last
}
