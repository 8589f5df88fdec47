// Package btree implements a disk-backed B+tree used for clustered and
// unclustered indexes. Leaves carry (key, payload) entries chained by a
// next-leaf pointer so clustered index scans stream leaves in key order —
// the access path behind Figure 9's order-sensitive scan experiment. For an
// unclustered index the payload is an encoded heap RID, and probes build a
// RID list that is sorted in page order before fetching (paper §3.2:
// "the list is then sorted on ascending page number to avoid multiple
// visits on the same page").
//
// Node layout (one fixed-size block; stated here and in ARCHITECTURE.md's
// "Access paths" section, implemented in node.go):
//
//	[0]        u8   kind: 1 = leaf, 0 = internal
//	[1:3)      u16  n, the number of entries
//	[3:11)     i64  next leaf page (-1: none, and on every internal node)
//	[11:11+2n) slot directory: u16 page offset of entry i, in key order
//	then the entries, packed in slot order
//
//	leaf entry:     key | u16 payload length | payload
//	internal entry: key | i64 child page
//	key:            one tuple-encoded value (kind tag, then 8 bytes, or a
//	                uvarint length and the string bytes)
//
// The read path (findLeaf, Search, Range, PinLeaf, ReadLeafTuples)
// binary-searches the slot directory of the pinned page and compares the
// probe against the encoded key bytes (tuple.CompareEncoded): no node is
// decoded, no payload copied. Insert, splits
// and BulkLoad materialize the one node they rewrite. Page 0 is a meta page
// (root, height, leaf count). Index files are rebuilt at recovery, so the
// layout owes nothing to older files.
//
// Trees are built by bulk-loading sorted input (the paper's data is bulk
// loaded, §1) and additionally support single inserts with node splits for
// the update µEngine.
//
// Concurrency: readers may run concurrently; inserts require external
// exclusion (the update µEngine holds a table X lock), matching how the
// prototype delegated concurrency control to the storage manager.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"qpipe/internal/storage/buffer"
	"qpipe/internal/tuple"
)

// Tree is a B+tree over a single disk file.
type Tree struct {
	Name string
	pool *buffer.Pool

	root   int64
	npages int64
	// height (1 = the root is a leaf) and nleaves are atomics because the
	// planner reads them for its page rule without the table lock that
	// orders inserts and scans.
	height  atomic.Int64
	nleaves atomic.Int64
}

// Create makes an empty tree in a new disk file.
func Create(pool *buffer.Pool, name string) (*Tree, error) {
	d := pool.Disk()
	if d.BlockSize() >= 1<<16 {
		return nil, fmt.Errorf("btree: block size %d: a u16 offset must address every byte of a node and its end", d.BlockSize())
	}
	// A tree built over a name (a re-index) replaces the file: what the pool
	// holds of the old one must not be read as the new one's pages.
	if err := pool.DropFile(name); err != nil {
		return nil, err
	}
	d.Create(name)
	t := &Tree{Name: name, pool: pool}
	// meta page 0
	if _, err := d.Append(name, make([]byte, d.BlockSize())); err != nil {
		return nil, err
	}
	t.npages = 1
	return t, t.resetToEmptyLeaf()
}

// resetToEmptyLeaf makes a fresh empty leaf the root.
func (t *Tree) resetToEmptyLeaf() error {
	pno, err := t.appendNode(&node{leaf: true, next: invalidPno})
	if err != nil {
		return err
	}
	t.root = pno
	t.height.Store(1)
	t.nleaves.Store(1)
	return t.writeMeta()
}

// Open binds to an existing tree file.
func Open(pool *buffer.Pool, name string) (*Tree, error) {
	d := pool.Disk()
	if !d.Exists(name) {
		return nil, fmt.Errorf("btree: no such file %q", name)
	}
	t := &Tree{Name: name, pool: pool, npages: int64(d.NumBlocks(name))}
	raw, err := d.Read(name, 0)
	if err != nil {
		return nil, err
	}
	t.root = int64(binary.LittleEndian.Uint64(raw[0:8]))
	t.height.Store(int64(binary.LittleEndian.Uint64(raw[8:16])))
	t.nleaves.Store(int64(binary.LittleEndian.Uint64(raw[16:24])))
	return t, nil
}

func (t *Tree) writeMeta() error {
	buf := make([]byte, t.pool.Disk().BlockSize())
	binary.LittleEndian.PutUint64(buf[0:8], uint64(t.root))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(t.height.Load()))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(t.nleaves.Load()))
	return t.pool.Disk().Write(t.Name, 0, buf)
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return int(t.height.Load()) }

// NumPages returns the file size in pages (including the meta page).
func (t *Tree) NumPages() int64 { return t.npages }

// NumLeaves returns the number of leaf pages (kept in the meta page, so the
// planner's page rule reads it without walking the chain).
func (t *Tree) NumLeaves() int64 { return t.nleaves.Load() }

// Fits reports whether an entry with this key and payload length can be
// stored: an entry may take at most half a node, in a leaf and (its key) in
// an internal node, which is what lets any overfull node split into two
// that fit.
func (t *Tree) Fits(k tuple.Value, payloadLen int) bool {
	half := (t.pool.Disk().BlockSize() - hdrSize) / 2
	return entrySize(true, k, payloadLen) <= half && entrySize(false, k, 0) <= half
}

// pin pins page pno and returns the view of its bytes; the caller unpins id.
func (t *Tree) pin(pno int64) (page, buffer.PageID, error) {
	id := buffer.PageID{File: t.Name, Block: pno}
	if err := t.checkPointer(pno); err != nil {
		return page{}, id, err
	}
	raw, err := t.pool.Pin(id)
	if err != nil {
		return page{}, id, err
	}
	p, err := viewPage(raw)
	if err != nil {
		t.pool.Unpin(id)
		return page{}, id, t.at(pno, err)
	}
	return p, id, nil
}

// checkPointer reports a page pointer that leaves the file as corruption.
func (t *Tree) checkPointer(pno int64) error {
	if pno < 1 || pno >= t.npages && pno >= t.filePages() {
		return t.at(pno, corruptf("page pointer outside the file's %d pages", t.filePages()))
	}
	return nil
}

// filePages is the file's length on the device. It can exceed npages when
// another manager over the same disk has grown the tree since this handle
// was opened, so it is what bounds page pointers and leaf-chain walks.
func (t *Tree) filePages() int64 { return int64(t.pool.Disk().NumBlocks(t.Name)) }

// at names the tree and page an error was found on.
func (t *Tree) at(pno int64, err error) error {
	return fmt.Errorf("%s page %d: %w", t.Name, pno, err)
}

func (t *Tree) readNode(pno int64) (*node, error) {
	id := buffer.PageID{File: t.Name, Block: pno}
	raw, err := t.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(id)
	n, err := decodeNode(raw)
	if err != nil {
		return nil, t.at(pno, err)
	}
	return n, nil
}

func (t *Tree) writeNode(pno int64, n *node) error {
	id := buffer.PageID{File: t.Name, Block: pno}
	raw, err := t.pool.Pin(id)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(id)
	t.pool.MarkDirty(id) // before the first byte moves: see buffer's package comment
	return n.encode(raw)
}

func (t *Tree) appendNode(n *node) (int64, error) {
	buf := make([]byte, t.pool.Disk().BlockSize())
	if err := n.encode(buf); err != nil {
		return 0, err
	}
	pno, err := t.pool.Disk().Append(t.Name, buf)
	if err != nil {
		return 0, err
	}
	t.npages = pno + 1
	return pno, nil
}

// ---- Bulk load --------------------------------------------------------------

// Item is one (key, payload) pair for bulk loading.
type Item struct {
	Key     tuple.Value
	Payload []byte
}

// BulkLoad replaces the tree's contents with the given key-sorted items,
// packing leaves to the fill factor (0 < ff <= 1, default 1.0) and building
// internal levels bottom-up.
func (t *Tree) BulkLoad(items []Item, ff float64) error {
	if ff <= 0 || ff > 1 {
		ff = 1.0
	}
	for i, it := range items {
		if i > 0 && tuple.Compare(items[i-1].Key, it.Key) > 0 {
			return fmt.Errorf("btree: bulk-load input not sorted at %d", i)
		}
		if !t.Fits(it.Key, len(it.Payload)) {
			return fmt.Errorf("btree: bulk-load item %d: entry exceeds half a %d-byte node", i, t.pool.Disk().BlockSize())
		}
	}
	if len(items) == 0 {
		return t.resetToEmptyLeaf()
	}
	blockSize := t.pool.Disk().BlockSize()
	limit := int(float64(blockSize) * ff)
	if limit < hdrSize+64 {
		limit = blockSize
	}

	// One level at a time, leaves first: fill a node until the next entry
	// would pass the limit, append it, and remember its first key for the
	// level above. Leaves are appended back to back, so a leaf's successor
	// is the page after it.
	type built struct {
		pno int64
		min tuple.Value
	}
	var level []built
	cur := &node{leaf: true, next: invalidPno}
	size := hdrSize
	flush := func(more bool) error {
		if cur.leaf && more {
			cur.next = t.npages + 1
		}
		pno, err := t.appendNode(cur)
		if err != nil {
			return err
		}
		level = append(level, built{pno: pno, min: cur.entries[0].key})
		cur = &node{leaf: cur.leaf, next: invalidPno}
		size = hdrSize
		return nil
	}
	add := func(e entry) error {
		esz := entrySize(cur.leaf, e.key, len(e.payload))
		if len(cur.entries) > 0 && size+esz > limit {
			if err := flush(true); err != nil {
				return err
			}
		}
		cur.entries = append(cur.entries, e)
		size += esz
		return nil
	}
	for _, it := range items {
		if err := add(entry{key: it.Key, payload: it.Payload}); err != nil {
			return err
		}
	}
	if err := flush(false); err != nil {
		return err
	}
	nleaves := int64(len(level))
	height := int64(1)
	for len(level) > 1 {
		children := level
		level = nil
		cur = &node{next: invalidPno}
		for _, ch := range children {
			if err := add(entry{key: ch.min, child: ch.pno}); err != nil {
				return err
			}
		}
		if err := flush(false); err != nil {
			return err
		}
		height++
	}
	t.root = level[0].pno
	t.height.Store(height)
	t.nleaves.Store(nleaves)
	return t.writeMeta()
}

// ---- Search ----------------------------------------------------------------

// findLeaf descends to the leaf that would contain k (the leftmost leaf for
// an invalid k) and returns its page number, pinning one page at a time.
// With a non-nil path it also records the internal pages visited, root
// first, for splits to propagate along.
func (t *Tree) findLeaf(k tuple.Value, path *[]int64) (int64, error) {
	pno := t.root
	height := t.height.Load()
	for level := height; level > 1; level-- {
		p, id, err := t.pin(pno)
		if err != nil {
			return 0, err
		}
		var child int64
		if p.leaf {
			err = corruptf("leaf at level %d of %d", level, height)
		} else {
			child, err = p.childFor(k)
		}
		t.pool.Unpin(id)
		if err != nil {
			return 0, t.at(pno, err)
		}
		if path != nil {
			*path = append(*path, pno)
		}
		pno = child
	}
	return pno, nil
}

// scan visits, in key order, the leaf entries with lo <= key <= hi (an
// invalid bound is open), after skipping skipLeaves whole leaves from the
// one lo falls in. visit receives the encoded key and the payload as they
// lie in the pinned page — valid for the call only — and stops the scan by
// returning false.
func (t *Tree) scan(lo, hi tuple.Value, skipLeaves int, visit func(key, payload []byte) bool) error {
	pno, err := t.findLeaf(lo, nil)
	if err != nil {
		return err
	}
	seeking := lo.IsValid()
	limit := t.filePages()
	for visited := int64(0); pno != invalidPno; visited++ {
		p, id, err := t.pin(pno)
		if err != nil {
			return err
		}
		more := true
		switch {
		case !p.leaf || visited >= limit:
			err = corruptf("leaf chain reaches a non-leaf or loops")
		case skipLeaves > 0:
			skipLeaves--
		default:
			i := 0
			if seeking {
				// Every key of the leaves after the one holding the first
				// key >= lo is >= lo too: search only until that one is found.
				i, err = p.lowerBound(lo)
				seeking = i == p.n
			}
			for ; i < p.n && more && err == nil; i++ {
				var key, payload []byte
				if key, payload, err = p.entry(i); err == nil {
					more = (!hi.IsValid() || tuple.CompareEncoded(key, hi) <= 0) && visit(key, payload)
				}
			}
		}
		next := p.next()
		t.pool.Unpin(id)
		if err != nil {
			return t.at(pno, err)
		}
		if !more {
			return nil
		}
		pno = next
	}
	return nil
}

// Search returns the payloads of all entries with key == k. The returned
// payloads are copies; they are all a warm search allocates.
func (t *Tree) Search(k tuple.Value) ([][]byte, error) {
	var out [][]byte
	err := t.scan(k, k, 0, func(_, payload []byte) bool {
		out = append(out, append([]byte(nil), payload...))
		return true
	})
	return out, err
}

// Range iterates entries with lo <= key <= hi in key order. Invalid lo means
// "from the start"; invalid hi means "to the end". fn returning false stops.
// The payload aliases the pinned page: it is valid for the call, and a
// caller that keeps it copies it.
func (t *Tree) Range(lo, hi tuple.Value, fn func(key tuple.Value, payload []byte) bool) error {
	return t.RangeFrom(lo, hi, 0, fn)
}

// RangeFrom is Range but may start at a given leaf ordinal offset (skipping
// whole leaves); used by the ordered-scan split in Figure 9's experiment
// where the second join packet re-reads only the skipped prefix.
func (t *Tree) RangeFrom(lo, hi tuple.Value, skipLeaves int, fn func(key tuple.Value, payload []byte) bool) error {
	return t.scan(lo, hi, skipLeaves, func(key, payload []byte) bool {
		return fn(tuple.DecodeValue(key), payload)
	})
}

// ScanLeaves iterates leaves in key order, invoking fn once per leaf with
// the leaf ordinal and its entries (payloads valid for the call). For
// validation and tests; scans stream through Range or PinLeaf.
func (t *Tree) ScanLeaves(fn func(ord int, keys []tuple.Value, payloads [][]byte) bool) error {
	pnos, err := t.LeafPageNos()
	if err != nil {
		return err
	}
	for ord, pno := range pnos {
		n, err := t.readNode(pno)
		if err != nil {
			return err
		}
		keys := make([]tuple.Value, len(n.entries))
		payloads := make([][]byte, len(n.entries))
		for i, e := range n.entries {
			keys[i], payloads[i] = e.key, e.payload
		}
		if !fn(ord, keys, payloads) {
			return nil
		}
	}
	return nil
}

// LeafPageNos walks the leaf chain returning leaf page numbers in key
// order. Scan engines cache this list so repeated scans address leaves
// directly (one buffered page read per leaf).
func (t *Tree) LeafPageNos() ([]int64, error) {
	pno, err := t.findLeaf(tuple.Value{}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, t.nleaves.Load())
	limit := t.filePages()
	for pno != invalidPno {
		p, id, err := t.pin(pno)
		if err != nil {
			return nil, err
		}
		next := p.next()
		t.pool.Unpin(id)
		if !p.leaf || int64(len(out)) >= limit {
			return nil, t.at(pno, corruptf("leaf chain reaches a non-leaf or loops"))
		}
		out = append(out, pno)
		pno = next
	}
	return out, nil
}

// PinLeaf pins leaf pno of a clustered index for a scan and returns its frame
// with the layout of its entries' payloads — the encoded rows of ncols columns
// — in key order, derived here, fresh, when no earlier visit of the resident
// page left one (buffer.Pool.PinLocated). The caller indexes the frame's bytes
// through it until it unpins the frame.
func (t *Tree) PinLeaf(pno int64, ncols int) (fr *buffer.Frame, l *buffer.Layout, fresh bool, err error) {
	if err := t.checkPointer(pno); err != nil {
		return nil, nil, false, err
	}
	return t.pool.PinLocated(buffer.PageID{File: t.Name, Block: pno}, ncols, locateLeaf)
}

// ReadLeafTuples reads one leaf page and decodes each payload as a tuple of
// ncols columns (clustered index leaves store full tuples), straight from
// the pinned page into one arena chunk.
func (t *Tree) ReadLeafTuples(pno int64, ncols int) ([]tuple.Tuple, error) {
	p, id, err := t.pin(pno)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(id)
	if !p.leaf {
		return nil, t.at(pno, corruptf("not a leaf"))
	}
	var arena tuple.RowArena
	arena.Grow(p.n * ncols)
	out := make([]tuple.Tuple, p.n)
	for i := range out {
		_, payload, err := p.entry(i)
		if err != nil {
			return nil, t.at(pno, err)
		}
		if out[i], _, err = tuple.DecodeArena(payload, ncols, &arena); err != nil {
			return nil, t.at(pno, corruptf("entry %d is no row of %d columns: %v", i, ncols, err))
		}
	}
	return out, nil
}

// ---- Insert ----------------------------------------------------------------

// Insert adds one (key, payload) entry, splitting nodes as needed.
// Duplicate keys are allowed (stored adjacent).
func (t *Tree) Insert(k tuple.Value, payload []byte) error {
	if !t.Fits(k, len(payload)) {
		return fmt.Errorf("btree: %s: entry exceeds half a %d-byte node", t.Name, t.pool.Disk().BlockSize())
	}
	var path []int64
	pno, err := t.findLeaf(k, &path)
	if err != nil {
		return err
	}
	leaf, err := t.readNode(pno)
	if err != nil {
		return err
	}
	if !leaf.leaf {
		return t.at(pno, corruptf("internal node at leaf level"))
	}
	// After the last entry with key <= k.
	ix := sort.Search(len(leaf.entries), func(i int) bool { return tuple.Compare(leaf.entries[i].key, k) > 0 })
	leaf.insertAt(ix, entry{key: k, payload: payload})
	right := leaf.splitIfOverfull(t.pool.Disk().BlockSize())
	if right == nil {
		return t.writeNode(pno, leaf)
	}
	rpno, err := t.appendNode(right)
	if err != nil {
		return err
	}
	leaf.next = rpno
	t.nleaves.Add(1)
	if err := t.writeNode(pno, leaf); err != nil {
		return err
	}
	if err := t.insertIntoParent(path, pno, right.entries[0].key, rpno); err != nil {
		return err
	}
	return t.writeMeta() // one more leaf, perhaps a new root
}

func (n *node) insertAt(ix int, e entry) {
	n.entries = append(n.entries, entry{})
	copy(n.entries[ix+1:], n.entries[ix:])
	n.entries[ix] = e
}

// splitIfOverfull moves the upper part of a node that no longer fits a
// block into a new right sibling (which inherits the next pointer) and
// returns it; nil when the node fits.
func (n *node) splitIfOverfull(blockSize int) *node {
	if n.size() <= blockSize {
		return nil
	}
	mid := n.splitPoint(blockSize)
	right := &node{leaf: n.leaf, next: n.next, entries: append([]entry(nil), n.entries[mid:]...)}
	n.entries = n.entries[:mid]
	return right
}

// insertIntoParent propagates a split upward. The new (sepKey, childPno)
// entry is placed positionally — immediately after the entry pointing at
// leftPno, the child that split — rather than by key search: separator keys
// record a child's minimum *at creation* and can go stale once smaller keys
// are inserted below, so key-ordered insertion could break child ordering.
func (t *Tree) insertIntoParent(path []int64, leftPno int64, sepKey tuple.Value, childPno int64) error {
	blockSize := t.pool.Disk().BlockSize()
	for len(path) > 0 {
		ppno := path[len(path)-1]
		path = path[:len(path)-1]
		parent, err := t.readNode(ppno)
		if err != nil {
			return err
		}
		ix := -1
		for i, e := range parent.entries {
			if e.child == leftPno {
				ix = i + 1
				break
			}
		}
		if ix < 0 {
			return fmt.Errorf("btree: parent %d has no entry for split child %d", ppno, leftPno)
		}
		parent.insertAt(ix, entry{key: sepKey, child: childPno})
		right := parent.splitIfOverfull(blockSize)
		if right == nil {
			return t.writeNode(ppno, parent)
		}
		rpno, err := t.appendNode(right)
		if err != nil {
			return err
		}
		if err := t.writeNode(ppno, parent); err != nil {
			return err
		}
		leftPno, sepKey, childPno = ppno, right.entries[0].key, rpno
	}
	// Split reached the root: grow a new root.
	oldRoot, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	rpno, err := t.appendNode(&node{next: invalidPno, entries: []entry{
		{key: oldRoot.entries[0].key, child: t.root},
		{key: sepKey, child: childPno},
	}})
	if err != nil {
		return err
	}
	t.root = rpno
	t.height.Add(1)
	return nil
}

// Count returns the number of entries (leaf walk).
func (t *Tree) Count() (int64, error) {
	var n int64
	err := t.scan(tuple.Value{}, tuple.Value{}, 0, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Validate walks the leaf chain checking that keys ascend across it and that
// it has as many leaves as the meta page says. Used by property tests after
// randomized insert workloads.
func (t *Tree) Validate() error {
	var prev tuple.Value
	var n int64
	var verr error
	err := t.scan(tuple.Value{}, tuple.Value{}, 0, func(key, _ []byte) bool {
		if n > 0 && tuple.CompareEncoded(key, prev) < 0 {
			verr = fmt.Errorf("btree: leaf chain out of order at entry %d (%s after %s)", n, tuple.DecodeValue(key), prev)
			return false
		}
		prev = tuple.DecodeValue(key)
		n++
		return true
	})
	if err == nil {
		err = verr
	}
	if err != nil {
		return err
	}
	pnos, err := t.LeafPageNos()
	if err != nil {
		return err
	}
	if n := t.nleaves.Load(); int64(len(pnos)) != n {
		return fmt.Errorf("btree: leaf chain has %d leaves, meta page says %d", len(pnos), n)
	}
	return nil
}
