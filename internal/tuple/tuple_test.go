package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if v := I64(42); v.K != KindInt || v.I != 42 {
		t.Errorf("I64: got %+v", v)
	}
	if v := F64(2.5); v.K != KindFloat || v.F != 2.5 {
		t.Errorf("F64: got %+v", v)
	}
	if v := Str("x"); v.K != KindString || v.S != "x" {
		t.Errorf("Str: got %+v", v)
	}
	if v := Date(100); v.K != KindDate || v.I != 100 {
		t.Errorf("Date: got %+v", v)
	}
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
}

func TestCompareNumericCross(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), I64(1), 1},
		{I64(2), I64(2), 0},
		{I64(2), F64(2.5), -1},
		{F64(2.5), I64(2), 1},
		{F64(2.0), I64(2), 0},
		{Date(10), Date(20), -1},
		{Date(10), I64(10), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Antisymmetry and transitivity over random values.
	rng := rand.New(rand.NewSource(7))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return I64(int64(rng.Intn(10) - 5))
		case 1:
			return F64(float64(rng.Intn(10)) / 2)
		case 2:
			return Str(string(rune('a' + rng.Intn(5))))
		default:
			return Date(int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 2000; i++ {
		a, b, c := randVal(), randVal(), randVal()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v <= %v <= %v", a, b, c)
		}
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{I64(1), Str("x")}
	c := orig.Clone()
	c[0] = I64(99)
	if orig[0].I != 1 {
		t.Error("Clone aliases original")
	}
}

func TestConcatAndProject(t *testing.T) {
	a := Tuple{I64(1), Str("x")}
	b := Tuple{F64(2.5)}
	cat := Concat(a, b)
	if len(cat) != 3 || cat[2].F != 2.5 {
		t.Fatalf("Concat: got %v", cat)
	}
	p := cat.Project([]int{2, 0})
	if len(p) != 2 || p[0].F != 2.5 || p[1].I != 1 {
		t.Fatalf("Project: got %v", p)
	}
}

func TestCompareAt(t *testing.T) {
	a := Tuple{I64(1), Str("b")}
	b := Tuple{I64(1), Str("a")}
	if CompareAt(a, b, []int{0}) != 0 {
		t.Error("equal on col 0")
	}
	if CompareAt(a, b, []int{0, 1}) != 1 {
		t.Error("a > b on (0,1)")
	}
}

func TestHashAtConsistency(t *testing.T) {
	a := Tuple{I64(7), Str("xy"), F64(1.5)}
	b := Tuple{I64(7), Str("xy"), F64(9.9)}
	if HashAt(a, []int{0, 1}) != HashAt(b, []int{0, 1}) {
		t.Error("hash should ignore non-key columns")
	}
	if HashAt(a, []int{2}) == HashAt(b, []int{2}) {
		t.Error("different float keys should (very likely) hash differently")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindString))
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if s.ColIndex("b") != 1 || s.ColIndex("z") != -1 {
		t.Error("ColIndex")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColIndex should panic on unknown column")
		}
	}()
	s.MustColIndex("zzz")
}

func TestSchemaProjectConcat(t *testing.T) {
	s := NewSchema(Col("a", KindInt), Col("b", KindString), Col("c", KindFloat))
	p := s.Project([]int{2, 0})
	if p.Cols[0].Name != "c" || p.Cols[1].Name != "a" {
		t.Errorf("Project: %v", p)
	}
	q := s.Concat(NewSchema(Col("d", KindDate)))
	if q.Len() != 4 || q.Cols[3].Name != "d" {
		t.Errorf("Concat: %v", q)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tup := Tuple{I64(-5), F64(3.25), Str("hello"), Date(20000), Str("")}
	enc := tup.Encode(nil)
	if len(enc) != tup.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(enc) %d", tup.EncodedSize(), len(enc))
	}
	dec, n, err := Decode(enc, len(tup))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(tup, dec) {
		t.Errorf("round trip: %v != %v", tup, dec)
	}
}

func TestDecodeErrors(t *testing.T) {
	tup := Tuple{I64(1), Str("abc")}
	enc := tup.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut], 2); err == nil {
			t.Fatalf("Decode of %d-byte prefix should fail", cut)
		}
	}
	if _, _, err := Decode([]byte{0xEE, 0, 0}, 1); err == nil {
		t.Error("bad kind tag should fail")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, d int64) bool {
		tup := Tuple{I64(i), F64(fl), Str(s), Date(d)}
		dec, _, err := Decode(tup.Encode(nil), 4)
		if err != nil {
			return false
		}
		// NaN != NaN under DeepEqual on float compare via Compare; use exact bits.
		return reflect.DeepEqual(tup, dec)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	tup := Tuple{I64(1), Str("x")}
	if got := tup.String(); got != "(1, x)" {
		t.Errorf("String: %q", got)
	}
}

// The hash is specified by properties, not values (no hash is persisted).

func TestHashEqualValuesHashEqually(t *testing.T) {
	// Whatever Equal calls equal hashes equally: a number by its value, not
	// its kind. Hash1, HashAt, the in-place HashEncoded and HashValue's step agree.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Int63n(1<<53) - 1<<52
		if i%4 == 0 {
			n = int64(i - 1000)
		}
		same := Tuple{I64(n), F64(float64(n)), Date(n)}
		want := Hash1(same, 0)
		for k, v := range same {
			if !Equal(same[0], v) {
				t.Fatalf("%v and %v are not Equal", same[0], v)
			}
			if got := Hash1(same, k); got != want {
				t.Fatalf("Hash1(%v) = %#x, Hash1(%v) = %#x", v, got, same[0], want)
			}
			if got := HashAt(same, []int{k}); got != want {
				t.Fatalf("HashAt(%v, [%d]) = %#x, Hash1 = %#x", same, k, got, want)
			}
			if got := HashEncoded(HashSeed, Tuple{v}.Encode(nil)); got != want {
				t.Fatalf("HashEncoded(%v) = %#x, Hash1 = %#x", v, got, want)
			}
			if got := HashValue(HashSeed, &v); got != want {
				t.Fatalf("HashValue(%v) = %#x, Hash1 = %#x", v, got, want)
			}
		}
	}
	zeros := Tuple{I64(0), F64(0), F64(math.Copysign(0, -1))}
	if Hash1(zeros, 0) != Hash1(zeros, 1) || Hash1(zeros, 1) != Hash1(zeros, 2) {
		t.Fatal("0, +0.0 and -0.0 are Equal and hash differently")
	}
	// Ints beyond 2^53 may share a hash; Equal tells them apart.
	big := Tuple{I64(1<<60 + 1), I64(1 << 60)}
	if Equal(big[0], big[1]) {
		t.Fatal("distinct big ints compare equal")
	}
	row := Tuple{I64(3), Str("a longer string, past one word"), F64(2.5), {}}
	for i := 0; i < 200; i++ {
		keys := []int{rng.Intn(len(row)), rng.Intn(len(row))}
		other := Tuple{F64(3), Str("a longer string, past one word"), F64(2.5), {}}
		if HashAt(row, keys) != HashAt(other, keys) {
			t.Fatalf("equal keys %v hash differently", keys)
		}
	}
	if HashAt(row, []int{0, 2}) == HashAt(row, []int{2, 0}) {
		t.Error("key order should (very likely) matter")
	}
	if Hash1(Tuple{Str("abcdefgh1")}, 0) == Hash1(Tuple{Str("abcdefgh2")}, 0) {
		t.Error("strings differing past the first word should (very likely) hash differently")
	}
}

func TestHashSpreadsLowAndHighBits(t *testing.T) {
	// The consumers take different bits: table slots and the statistics
	// sketch the low ones, the partitioned join and the key bitmap the high
	// ones. 10^5 sequential ints must fill 64 buckets evenly either way.
	const n, buckets = 100000, 64
	for _, kind := range []func(int64) Value{I64, func(i int64) Value { return F64(float64(i)) }} {
		var low, high [buckets]int
		for i := int64(0); i < n; i++ {
			h := Hash1(Tuple{kind(i)}, 0)
			low[h%buckets]++
			high[h>>(64-6)]++
		}
		for b := 0; b < buckets; b++ {
			for _, c := range []int{low[b], high[b]} {
				if mean := n / buckets; c < mean*8/10 || c > mean*12/10 {
					t.Fatalf("bucket %d holds %d of %d keys, want about %d", b, c, n, mean)
				}
			}
		}
	}
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

func TestHashAtZeroAllocs(t *testing.T) {
	row := Tuple{I64(42), Str("hello world"), F64(3.14), Date(12345)}
	keys := []int{0, 1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		HashAt(row, keys)
	}); allocs != 0 {
		t.Fatalf("HashAt allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Hash1(row, 1)
	}); allocs != 0 {
		t.Fatalf("Hash1 allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRowArena(t *testing.T) {
	var a RowArena
	x := Tuple{I64(1), Str("l")}
	y := Tuple{I64(2), Str("r")}
	c := a.Concat(x, y)
	if len(c) != 4 || c[0].I != 1 || c[3].S != "r" {
		t.Fatalf("arena concat: %v", c)
	}
	p := a.Project(c, []int{3, 0})
	if len(p) != 2 || p[0].S != "r" || p[1].I != 1 {
		t.Fatalf("arena project: %v", p)
	}
	// Appending to one carved row must never clobber its neighbours.
	c = append(c, I64(99))
	if p[0].S != "r" {
		t.Fatal("append to one arena row clobbered the next")
	}
	// Rows survive chunk turnover.
	rows := make([]Tuple, 0, 10000)
	for i := 0; i < 10000; i++ {
		r := a.Make(3)
		r[0] = I64(int64(i))
		rows = append(rows, r)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
	// Amortization: many small rows should cost far less than one
	// allocation each.
	var b RowArena
	if allocs := testing.AllocsPerRun(1000, func() { b.Make(4) }); allocs > 0.1 {
		t.Fatalf("arena Make allocates %.3f allocs/op, want amortized ~1/chunk", allocs)
	}
	// A fresh arena's first chunk is its first row, not the cap.
	var f RowArena
	f.Make(1)
	if got := cap(f.chunk); got != 1 {
		t.Fatalf("first chunk after Make(1) holds %d values, want 1", got)
	}
	// Each later chunk doubles, up to the cap, and stays there.
	want := cap(f.chunk)
	for range 12 {
		f.Make(cap(f.chunk) - len(f.chunk)) // fill the chunk
		f.Make(1)                           // the next carve opens a new one
		want = min(2*want, arenaChunkValues)
		if got := cap(f.chunk); got != want {
			t.Fatalf("chunk holds %d values, want %d", got, want)
		}
	}
	// A carve above the cap gets exactly its size.
	big := f.Make(arenaChunkValues + 7)
	if len(big) != arenaChunkValues+7 || cap(big) != arenaChunkValues+7 || cap(f.chunk) != arenaChunkValues+7 {
		t.Fatalf("carve of %d: row len %d cap %d, chunk cap %d", arenaChunkValues+7, len(big), cap(big), cap(f.chunk))
	}
}

func TestDecodeArenaMatchesDecode(t *testing.T) {
	in := Tuple{I64(-5), F64(2.75), Str("abc"), Date(9000)}
	enc := in.Encode(nil)
	var a RowArena
	got, n, err := DecodeArena(enc, len(in), &a)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeArena: %v n=%d", err, n)
	}
	want, _, err := Decode(enc, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeArena %v != Decode %v", got, want)
	}
}
