// Temp-file spill helpers shared by the sort µEngine (runs + materialized
// sorted output) and the hybrid hash join (partition files). Spill files
// live on the same simulated disk as tables, so their I/O is charged and
// counted like any other I/O — materialization costs are real in the
// experiments, as they were in the paper's prototype.
package ops

import (
	"fmt"

	"qpipe/internal/core"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/page"
	"qpipe/internal/tuple"
)

// spillWriter appends tuples to a temp file in slotted pages. One encode
// scratch buffer is reused across rows, so spilling a run costs no per-row
// allocation.
type spillWriter struct {
	d       *disk.Disk
	name    string
	pg      *page.Page
	n       int64
	scratch []byte
}

// newSpillWriter creates a temp file for pkt. Its name is recorded on the
// packet before the file exists (Runtime.TempFile), so the µEngine drops it
// after Run whatever happens to the writes; a file that must outlive Run
// leaves the packet through Packet.KeepTemp.
func newSpillWriter(rt *core.Runtime, pkt *core.Packet, prefix string) *spillWriter {
	d, name := rt.SM.Disk, rt.TempFile(pkt, prefix)
	d.Create(name)
	return &spillWriter{d: d, name: name, pg: page.New(d.BlockSize())}
}

func (w *spillWriter) add(t tuple.Tuple) error {
	if !w.pg.HasRoomFor(t.EncodedSize()) {
		if err := w.flushPage(); err != nil {
			return err
		}
	}
	var err error
	_, w.scratch, err = w.pg.InsertTupleScratch(t, w.scratch)
	if err != nil {
		return fmt.Errorf("ops: tuple exceeds spill page size: %w", err)
	}
	w.n++
	return nil
}

func (w *spillWriter) flushPage() error {
	if w.pg.NumSlots() == 0 {
		return nil
	}
	if _, err := w.d.Append(w.name, w.pg.Bytes()); err != nil {
		return err
	}
	w.pg = page.New(w.d.BlockSize())
	return nil
}

// close flushes the tail page and returns the total tuple count.
func (w *spillWriter) close() (int64, error) {
	if err := w.flushPage(); err != nil {
		return 0, err
	}
	return w.n, nil
}

// spillReader streams a spill file page by page.
type spillReader struct {
	d     *disk.Disk
	name  string
	ncols int
	pno   int64
	limit int64
	batch []tuple.Tuple
	i     int
}

func newSpillReader(d *disk.Disk, name string, ncols int) *spillReader {
	return &spillReader{d: d, name: name, ncols: ncols, limit: int64(d.NumBlocks(name))}
}

// next returns the next tuple; ok=false at EOF.
func (r *spillReader) next() (tuple.Tuple, bool, error) {
	for r.i >= len(r.batch) {
		if r.pno >= r.limit {
			return nil, false, nil
		}
		raw, err := r.d.Read(r.name, r.pno)
		if err != nil {
			return nil, false, err
		}
		r.pno++
		pg := page.FromBytes(raw)
		r.batch, err = pg.Tuples(r.ncols)
		if err != nil {
			return nil, false, err
		}
		r.i = 0
	}
	t := r.batch[r.i]
	r.i++
	return t, true, nil
}

// readPage returns page ord's tuples (for page-granular streaming).
func readSpillPage(d *disk.Disk, name string, ncols int, ord int64) ([]tuple.Tuple, error) {
	raw, err := d.Read(name, ord)
	if err != nil {
		return nil, err
	}
	return page.FromBytes(raw).Tuples(ncols)
}
