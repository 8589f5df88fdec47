package page

import (
	"errors"
	"fmt"
	"testing"

	"qpipe/internal/tuple"
)

// TestLocateMatchesTuples: the layout, column by column, is what the
// whole-page decoder (which shares no code with it) reads from the same bytes
// — tombstones skipped, rows of unequal widths and of numbers only alike.
func TestLocateMatchesTuples(t *testing.T) {
	p := New(1024)
	var rows []tuple.Tuple
	for i := 0; i < 20; i++ {
		row := tuple.Tuple{tuple.I64(int64(i)), tuple.Str(fmt.Sprint("name-", i*i)), tuple.F64(float64(i) / 3), tuple.Date(int64(19000 + i))}
		if i%4 == 0 {
			row[1] = tuple.I64(int64(-i)) // as long as four numbers: Offsets' arithmetic path
		}
		rows = append(rows, row)
		if _, err := p.InsertTuple(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, dead := range []int{0, 7, 19} {
		if err := p.DeleteAt(dead); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.Tuples(4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Locate(p.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rows != len(want) || len(l.Offs) != 5*l.Rows {
		t.Fatalf("%d rows and %d offsets located, the decoder reads %d rows", l.Rows, len(l.Offs), len(want))
	}
	for r, row := range want {
		for c := range row {
			if got := tuple.DecodeValue(p.Bytes()[l.Offs[r*5+c]:]); tuple.Compare(got, row[c]) != 0 || got.K != row[c].K {
				t.Fatalf("row %d column %d: located %v, decoded %v", r, c, got, row[c])
			}
		}
	}
	// Every column but the one with TEXT in it is numbers of one kind.
	for c, want := range []tuple.Kind{tuple.KindInt, 0, tuple.KindFloat, tuple.KindDate} {
		if kind, vec := l.Vec(c); tuple.Kind(kind) != want || (vec == nil) != (want == 0) || vec != nil && len(vec) != l.Rows {
			t.Fatalf("column %d: %d numbers of kind %v, want kind %v", c, len(vec), tuple.Kind(kind), want)
		}
	}
}

// FuzzLocate hands Locate arbitrary bytes as a page of three-column rows: a
// layout whose every offset lies inside the buffer, in ascending order within
// a row, at a value tuple.ValueWidth accepts, one row a live slot, and a
// number vector for a column exactly when its values are numbers of one kind,
// entry r being row r's value — or a typed error; never a panic or an
// out-of-range slice.
func FuzzLocate(f *testing.F) {
	const ncols = 3
	p := New(256)
	for i := 0; i < 6; i++ {
		if _, err := p.InsertTuple(tuple.Tuple{tuple.I64(int64(i)), tuple.Str(fmt.Sprint("s", i)), tuple.F64(0.5)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := p.DeleteAt(1); err != nil {
		f.Fatal(err)
	}
	f.Add(p.Bytes())
	numbers := New(256) // a kind-uniform column of each kind, and an INT/FLOAT one
	for i := 0; i < 5; i++ {
		mixed := []tuple.Value{tuple.I64(int64(i)), tuple.F64(float64(i))}[i%2]
		if _, err := numbers.InsertTuple(tuple.Tuple{tuple.Date(int64(i)), tuple.F64(float64(i) / 4), mixed}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(numbers.Bytes())
	for _, at := range []int{0, 4, 6, 255 - 9, 255 - 12} { // slot count, a slot, a kind tag, a string length
		torn := append([]byte(nil), p.Bytes()...)
		torn[at] ^= 0xff
		f.Add(torn)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0, 0})
	f.Add(make([]byte, 1<<16))

	f.Fuzz(func(t *testing.T, raw []byte) {
		l, err := Locate(raw, ncols)
		if err != nil {
			var ce *CorruptError
			var ee *tuple.EncodingError
			if !errors.As(err, &ce) && !errors.As(err, &ee) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		pg, live := FromBytes(raw), 0
		for s := 0; s < pg.NumSlots(); s++ {
			if !pg.Tombstone(s) {
				live++
			}
		}
		if l.Rows != live || len(l.Offs) != l.Rows*(ncols+1) {
			t.Fatalf("%d rows, %d offsets; the page has %d live slots", l.Rows, len(l.Offs), live)
		}
		for i, off := range l.Offs {
			if int(off) > len(raw) {
				t.Fatalf("offset %d is %d, past the %d-byte buffer", i, off, len(raw))
			}
			if i%(ncols+1) == ncols {
				continue // a row's end
			}
			if w, err := tuple.ValueWidth(raw[off:]); err != nil || int(off)+w != int(l.Offs[i+1]) {
				t.Fatalf("offset %d (%d): a value of width %d, %v; the next offset is %d", i, off, w, err, l.Offs[i+1])
			}
		}
		// What Locate accepts, the whole-page decoder reads too.
		rows, err := pg.Tuples(ncols)
		if err != nil {
			t.Fatalf("located a page the decoder rejects: %v", err)
		}
		for c := 0; c < ncols; c++ {
			uniform := len(rows) > 0 && rows[0][c].K != tuple.KindString
			for _, r := range rows {
				uniform = uniform && r[c].K == rows[0][c].K
			}
			kind, vec := l.Vec(c)
			if (vec != nil) != uniform || len(vec) != len(rows) && vec != nil {
				t.Fatalf("column %d: %d numbers of kind %d; kind-uniform %v over %d rows", c, len(vec), kind, uniform, len(rows))
			}
			for r, bits := range vec {
				var v tuple.Value
				tuple.SetNumber(&v, tuple.Kind(kind), bits)
				if fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", rows[r][c]) {
					t.Fatalf("column %d row %d: the vector holds %#v, the decoder reads %#v", c, r, v, rows[r][c])
				}
			}
		}
	})
}
