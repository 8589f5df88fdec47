// Test cases for rowlint: rows read from a Buffer.Get are immutable.
package rowlint

import (
	"tbuf"
	"tuple"
)

// mutatePublished: rows drawn from a Buffer.Get are shared by reference and
// must not be written.
func mutatePublished(buf *tbuf.Buffer) error {
	batch, err := buf.Get()
	if err != nil {
		return err
	}
	t := batch[0]
	t[0] = tuple.Value{I: 9} // want `rows are immutable once published`
	return nil
}

// mutatePublishedDeep: writing through a nested index or a field of a row
// is the same violation, and so is an increment.
func mutatePublishedDeep(buf *tbuf.Buffer) error {
	batch, err := buf.Get()
	if err != nil {
		return err
	}
	batch[0][1] = tuple.Value{I: 7} // want `rows are immutable once published`
	batch[1][0].I++                 // want `rows are immutable once published`
	return nil
}

// mutateRangeRow: range values over a Buffer.Get batch are published rows
// too.
func mutateRangeRow(buf *tbuf.Buffer) error {
	var batch, err = buf.Get()
	if err != nil {
		return err
	}
	for _, t := range batch {
		t[0].I = 42 // want `rows are immutable once published`
	}
	return nil
}

// cleanRead: the canonical consumer loop body reads rows and writes none.
func cleanRead(buf *tbuf.Buffer) (int64, error) {
	batch, err := buf.Get()
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range batch {
		sum += t[0].I
	}
	return sum, nil
}

// cleanReorder: the batch array is the consumer's own; moving its rows
// around writes no row.
func cleanReorder(buf *tbuf.Buffer) (tbuf.Batch, error) {
	batch, err := buf.Get()
	if err != nil || len(batch) < 2 {
		return batch, err
	}
	batch[0], batch[1] = batch[1], batch[0]
	batch[0] = nil
	return batch, nil
}

// cleanOwnRow: a row the function built itself may be written.
func cleanOwnRow(buf *tbuf.Buffer) (tuple.Tuple, error) {
	batch, err := buf.Get()
	if err != nil {
		return nil, err
	}
	out := make(tuple.Tuple, len(batch[0]))
	copy(out, batch[0])
	out[0] = tuple.Value{I: 1}
	return out, nil
}
