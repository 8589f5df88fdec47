package tuple

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// drawValue draws a value of any kind, edge cases included: the invalid
// value, integers no float64 holds, NaN, infinities, both zeros, the empty
// string and strings that are prefixes of each other.
func drawValue(rng *rand.Rand) Value {
	switch rng.Intn(12) {
	case 0:
		return Value{}
	case 1:
		return I64(int64(rng.Intn(7) - 3))
	case 2:
		return I64(math.MaxInt64 - int64(rng.Intn(3)))
	case 3:
		return I64(1<<53 + int64(rng.Intn(5)) - 2)
	case 4:
		return F64(float64(rng.Intn(13)-6) / 2)
	case 5:
		return F64([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1 << 53, math.MaxFloat64}[rng.Intn(7)])
	case 6:
		return F64(rng.NormFloat64() * 1e3)
	case 7:
		return Date(int64(rng.Intn(7) - 3))
	case 8:
		return Str("")
	case 9:
		return Str("abc"[:rng.Intn(4)])
	default:
		return Str(randString(rng, rng.Intn(6)))
	}
}

// The encoded comparison is tuple.Compare on the decoded value: the one
// order the B+tree and the scan µEngine's in-place filters may use.
func TestCompareEncodedMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for i := 0; i < 200000; i++ {
		a, b := drawValue(rng), drawValue(rng)
		if !a.IsValid() {
			continue // the invalid value is never stored
		}
		enc := Tuple{a}.Encode(nil)
		if got, want := CompareEncoded(enc, b), Compare(a, b); got != want {
			t.Fatalf("CompareEncoded(%v, %v) = %d, Compare says %d", a, b, got, want)
		}
		// Trailing bytes (the rest of a row) change nothing.
		enc = append(enc, 0xFF, 0x01)
		if got, want := CompareEncoded(enc, b), Compare(a, b); got != want {
			t.Fatalf("with trailing bytes: CompareEncoded(%v, %v) = %d, Compare says %d", a, b, got, want)
		}
	}
}

// The encoded hash is HashAt of the decoded row, whatever the kinds and
// however many key columns: the scan µEngine groups on page bytes into the
// tables the group-by fills from rows.
func TestHashEncodedMatchesHashAt(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for i := 0; i < 20000; i++ {
		row := make(Tuple, 1+rng.Intn(3))
		keys := make([]int, len(row))
		h := HashSeed
		for c := range row {
			for !row[c].IsValid() {
				row[c] = drawValue(rng)
			}
			keys[c] = c
			h = HashEncoded(h, append(Tuple{row[c]}.Encode(nil), 0xFF, 0x01)) // trailing bytes: the rest of a row
		}
		if want := HashAt(row, keys); h != want {
			t.Fatalf("HashEncoded over %v = %#x, HashAt = %#x", row, h, want)
		}
	}
	long := Tuple{Str("a string of more than two whole words")}.Encode(nil)
	if n := testing.AllocsPerRun(100, func() { HashEncoded(HashSeed, long) }); n != 0 {
		t.Fatalf("HashEncoded allocates %v times per call", n)
	}
}

// A number read from its payload — a page's number vector holds the eight
// bytes after the tag — is the decoded number: SetNumber makes the Value
// DecodeInto makes, CompareNumber orders it as Compare does, HashNumber
// hashes it as HashValue does.
func TestNumberFromPayloadIsTheDecodedNumber(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	for i := 0; i < 200000; i++ {
		a, b := drawValue(rng), drawValue(rng)
		if a.K == KindInvalid || a.K == KindString {
			continue
		}
		enc := Tuple{a}.Encode(nil)
		bits := uint64(0)
		for j := 8; j >= 1; j-- {
			bits = bits<<8 | uint64(enc[j])
		}
		var got, want Value
		SetNumber(&got, a.K, bits)
		DecodeInto(&want, enc)
		if got.K != want.K || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("SetNumber(%v) = %#v, DecodeInto gives %#v", a, got, want)
		}
		if c, want := CompareNumber(a.K, bits, b), Compare(a, b); c != want {
			t.Fatalf("CompareNumber(%v, %v) = %d, Compare says %d", a, b, c, want)
		}
		if h, want := HashNumber(HashSeed, a.K, bits), HashValue(HashSeed, &a); h != want {
			t.Fatalf("HashNumber(%v) = %#x, HashValue = %#x", a, h, want)
		}
	}
}

func TestCompareEncodedAllocatesNothing(t *testing.T) {
	enc := Tuple{Str("a string long enough not to be interned")}.Encode(nil)
	probe := Str("a string long enough not to be interned!")
	if n := testing.AllocsPerRun(100, func() { CompareEncoded(enc, probe) }); n != 0 {
		t.Fatalf("CompareEncoded allocates %v times per call", n)
	}
}

// Offsets + DecodeInto is Decode, column by column; and no prefix of a row,
// nor a row with a damaged tag, gets past Offsets.
func TestOffsetsWalkMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for i := 0; i < 2000; i++ {
		row := make(Tuple, 1+rng.Intn(6))
		for c := range row {
			for !row[c].IsValid() {
				row[c] = drawValue(rng)
			}
		}
		// The row lies base bytes into its page, and the offsets are the page's.
		base := rng.Intn(100)
		pg := row.Encode(make([]byte, base))
		enc := pg[base:]
		offs := make([]uint16, len(row)+1)
		if err := Offsets(enc, base, offs); err != nil {
			t.Fatalf("%v: %v", row, err)
		}
		if int(offs[len(row)]) != len(pg) {
			t.Fatalf("%v: the walk ends at %d of %d bytes", row, offs[len(row)], len(pg))
		}
		want, _, err := Decode(enc, len(row))
		if err != nil {
			t.Fatal(err)
		}
		got := make(Tuple, len(row))
		for c := range got {
			DecodeInto(&got[c], pg[offs[c]:])
			if w, err := ValueWidth(pg[offs[c]:]); err != nil || w != int(offs[c+1]-offs[c]) {
				t.Fatalf("%v column %d: ValueWidth %d, %v; the walk says %d", row, c, w, err, offs[c+1]-offs[c])
			}
		}
		if !reflect.DeepEqual(valueBits(got), valueBits(want)) {
			t.Fatalf("walk decoded %v, Decode %v", got, want)
		}
		for cut := 0; cut < len(enc); cut++ {
			var ee *EncodingError
			if err := Offsets(enc[:cut], base, offs); !errors.As(err, &ee) {
				t.Fatalf("%v cut at %d: got %v, want an *EncodingError", row, cut, err)
			}
		}
		pg[offs[rng.Intn(len(row))]] = byte(5 + rng.Intn(250))
		var ee *EncodingError
		if err := Offsets(enc, base, offs); !errors.As(err, &ee) {
			t.Fatalf("%v with a damaged tag: got %v, want an *EncodingError", row, err)
		}
	}
}

// valueBits makes NaNs comparable.
func valueBits(t Tuple) []any {
	out := make([]any, 0, 4*len(t))
	for _, v := range t {
		out = append(out, v.K, v.I, math.Float64bits(v.F), v.S)
	}
	return out
}
