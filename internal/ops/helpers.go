// Package ops implements the relational µEngines QPipe serves: circular
// table scans, clustered/unclustered index scans, filter, project, external
// sort, merge join (with the ordered-scan split of §4.3.2), hybrid hash
// join, nested-loop join, scalar aggregation, hash group-by and the update
// engine. Each operator encapsulates its own sharing mechanism, per the
// paper ("each µEngine employs a different sharing mechanism, depending on
// the encapsulated relational operation").
package ops

import (
	"io"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/tuple"
)

// emitter accumulates tuples and flushes them in batches to a packet's
// output port: a flush gives the array to the port and the next add makes a
// fresh one of the batch size. An error from add or flush means only
// "stop": the port keeps why it stopped, every later Put repeats it at once,
// and the packet's completion reads it (core.Packet.Complete). So a loop
// that only emits what it already holds (a Top-N's heap, an aggregate's
// groups) drops add's error; one that reads input for each row returns it,
// and stops.
type emitter struct {
	out   *tbuf.SharedOut
	batch tbuf.Batch
	size  int
}

func newEmitter(pkt *core.Packet, batchSize int) *emitter {
	if batchSize < 1 {
		batchSize = core.DefaultBatchSize
	}
	return &emitter{out: pkt.Out, size: batchSize}
}

func (e *emitter) add(t tuple.Tuple) error {
	if e.batch == nil {
		e.batch = make(tbuf.Batch, 0, e.size)
	}
	e.batch = append(e.batch, t)
	if len(e.batch) >= e.size {
		return e.flush()
	}
	return nil
}

func (e *emitter) flush() error {
	if len(e.batch) == 0 {
		return nil
	}
	b := e.batch
	e.batch = nil
	return e.out.Put(b)
}

// cursor reads a buffer one tuple at a time with single-tuple lookahead
// (merge join needs peek).
type cursor struct {
	buf   *tbuf.Buffer
	batch tbuf.Batch
	i     int
	eof   bool
}

func newCursor(buf *tbuf.Buffer) *cursor { return &cursor{buf: buf} }

// peek returns the next tuple without consuming it; ok is false at EOF.
func (c *cursor) peek() (tuple.Tuple, bool, error) {
	for !c.eof && c.i >= len(c.batch) {
		b, err := c.buf.Get()
		if err == io.EOF {
			c.eof = true
			break
		}
		if err != nil {
			return nil, false, err
		}
		c.batch, c.i = b, 0
	}
	if c.eof {
		c.batch = nil
		return nil, false, nil
	}
	return c.batch[c.i], true, nil
}

// next consumes and returns the next tuple; ok is false at EOF.
func (c *cursor) next() (tuple.Tuple, bool, error) {
	t, ok, err := c.peek()
	if err != nil || !ok {
		return nil, ok, err
	}
	c.i++
	return t, true, nil
}

// drainAll reads a buffer to EOF, returning all tuples (rows are retained by
// reference).
func drainAll(buf *tbuf.Buffer) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	for {
		b, err := buf.Get()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
}

// emitBatch streams a batch's rows into the emitter.
func emitBatch(em *emitter, out tbuf.Batch) error {
	for _, row := range out {
		if err := em.add(row); err != nil {
			return err
		}
	}
	return nil
}

// hashTable is the one hash table of the join and group-by µEngines: rows in
// arrival order, each with its 64-bit hash, chained through next links off a
// power-of-two slot directory. It stores a row per add (a join's build side
// repeats keys; the group-by looks before it adds), a lookup walks one chain
// comparing stored hashes before the caller compares keys, and growing
// re-links the rows from their stored hashes without rehashing one.
type hashTable struct {
	slots []int32 // hash & mask -> 1 + the chain's newest row, 0 when empty
	rows  []tuple.Tuple
	hash  []uint64
	next  []int32 // row -> 1 + the next older row of its chain
}

// add stores row under hash h and returns its number.
func (t *hashTable) add(h uint64, row tuple.Tuple) int {
	if len(t.rows) >= len(t.slots) {
		t.slots = make([]int32, max(64, 2*len(t.slots)))
		for i, rh := range t.hash {
			s := &t.slots[rh&uint64(len(t.slots)-1)]
			t.next[i], *s = *s, int32(i+1)
		}
	}
	s := &t.slots[h&uint64(len(t.slots)-1)]
	t.rows, t.hash, t.next = append(t.rows, row), append(t.hash, h), append(t.next, *s)
	*s = int32(len(t.rows))
	return len(t.rows) - 1
}

// first returns the newest row stored under hash h, and after the next older
// one: as a row number, or -1 when there is none.
func (t *hashTable) first(h uint64) int {
	if len(t.slots) == 0 {
		return -1
	}
	return t.match(t.slots[h&uint64(len(t.slots)-1)], h)
}

func (t *hashTable) after(i int, h uint64) int { return t.match(t.next[i], h) }

func (t *hashTable) match(link int32, h uint64) int {
	for link != 0 && t.hash[link-1] != h {
		link = t.next[link-1]
	}
	return int(link) - 1
}
