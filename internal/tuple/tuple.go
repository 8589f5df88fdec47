// Package tuple defines the value, tuple and schema model shared by the
// storage manager and both execution engines.
//
// Values are small tagged unions (no interface boxing on the hot path),
// tuples are flat slices of values, and schemas carry column names and
// kinds. The package also provides total ordering, equality, hashing and a
// compact binary encoding used by the slotted-page layer.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the supported column types. The set mirrors what the
// QPipe/BerkeleyDB prototype needed for the Wisconsin and TPC-H schemas:
// integers, floats, fixed-point decimals (stored as float64), strings and
// dates (stored as days since epoch in an int64).
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // string
	KindDate         // int64 days since 1970-01-01
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "invalid"
	}
}

// Value is a tagged union holding a single column value.
// The zero Value has KindInvalid and is used to represent NULL-ish holes in
// intermediate results (the paper's workloads never produce SQL NULLs).
type Value struct {
	K Kind
	I int64   // KindInt, KindDate
	F float64 // KindFloat
	S string  // KindString
}

// I64 constructs an integer value.
func I64(v int64) Value { return Value{K: KindInt, I: v} }

// F64 constructs a float value.
func F64(v float64) Value { return Value{K: KindFloat, F: v} }

// Str constructs a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Date constructs a date value from days since epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsValid reports whether the value holds a concrete kind.
func (v Value) IsValid() bool { return v.K != KindInvalid }

// AsFloat coerces numeric values to float64. Strings return 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt coerces numeric values to int64. Strings return 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value for debugging and result printing, and in
// signatures: an int as %d, a float as %g, a date as d%d.
func (v Value) String() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return "d" + strconv.FormatInt(v.I, 10)
	default:
		return "<invalid>"
	}
}

// kindGroup buckets kinds so that all numeric kinds (int/float/date) form a
// single comparison group: invalid < numeric < string. Grouping (rather than
// ordering by raw kind tag) keeps Compare a total preorder — transitivity
// would break if Str("c") < Date(1) by tag while Date(1) < F64(1.5)
// numerically but Str("c") > F64(1.5) by tag.
func kindGroup(k Kind) int {
	switch k {
	case KindInt, KindFloat, KindDate:
		return 1
	case KindString:
		return 2
	default:
		return 0
	}
}

// Compare returns -1, 0 or +1 ordering a before/equal/after b.
// Numeric kinds (int/float/date) compare numerically against each other so
// that predicates over mixed int/float columns behave naturally; all
// numerics order before all strings (transitive total preorder).
func Compare(a, b Value) int {
	an := kindGroup(a.K) == 1
	bn := kindGroup(b.K) == 1
	if an && bn {
		if a.K == KindFloat || b.K == KindFloat {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	ga, gb := kindGroup(a.K), kindGroup(b.K)
	if ga != gb {
		if ga < gb {
			return -1
		}
		return 1
	}
	// Same non-numeric group: only strings (or both invalid) remain.
	return strings.Compare(a.S, b.S)
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tuple is a flat row of values. A tuple is immutable from the moment it is
// published to an output port (see tbuf and the README's "Memory model"), so
// producers, fan-out satellites and downstream operators all share the same
// row by reference. An operator that needs to alter a row builds a new one
// (typically from a RowArena) instead of mutating in place.
type Tuple []Value

// Clone returns a deep copy of the tuple (value slice is copied; strings are
// immutable in Go so sharing their bytes is safe).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns a new tuple holding a's values followed by b's.
func Concat(a, b Tuple) Tuple {
	c := make(Tuple, 0, len(a)+len(b))
	c = append(c, a...)
	c = append(c, b...)
	return c
}

// Project returns a new tuple keeping only the columns at idxs.
func (t Tuple) Project(idxs []int) Tuple {
	c := make(Tuple, len(idxs))
	for i, ix := range idxs {
		c[i] = t[ix]
	}
	return c
}

// ---- Row arena -------------------------------------------------------------

// arenaChunkValues is the cap an arena's chunks (in Values) double up to. A
// fresh arena's first chunk is exactly its first carve, so a worker that keeps
// one row allocates one row; each later chunk is twice the last, so a long
// scan reaches the cap after a few pages and then pays one allocation per
// 4 096 values. The cap bounds what a mostly-idle arena holds on to.
const arenaChunkValues = 4096

// RowArena bulk-allocates tuple rows, replacing one heap allocation per row
// (join Concat output, projection rows, decoded page tuples) with one per
// chunk, and sizes its chunks by what it has carved so far: the first is
// the first row, each later one doubles up to arenaChunkValues, and a
// carve larger than that gets a chunk of exactly its size. Rows carved from
// an arena are immutable once published to a consumer, so sharing one backing chunk
// across many rows is safe, and the chunk is garbage-collected as one object
// when the last row referencing it dies. Arenas are not goroutine-safe;
// every parallel worker owns its own.
//
// The zero RowArena is ready to use.
type RowArena struct {
	chunk []Value
}

// Grow pre-sizes the arena's next chunk so the following n Values carve out
// of a single allocation (e.g. one page worth of projected rows).
func (a *RowArena) Grow(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]Value, 0, n)
	}
}

// Make carves a zeroed row of n values for the caller to fill before
// publishing. The row has capacity n exactly, so a later append on it can
// never clobber a neighbouring row.
func (a *RowArena) Make(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]Value, 0, max(min(2*cap(a.chunk), arenaChunkValues), n))
	}
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	return Tuple(a.chunk[l : l+n : l+n])
}

// Concat is tuple.Concat into an arena-carved row.
func (a *RowArena) Concat(x, y Tuple) Tuple {
	c := a.Make(len(x) + len(y))
	copy(c, x)
	copy(c[len(x):], y)
	return c
}

// Project is Tuple.Project into an arena-carved row.
func (a *RowArena) Project(t Tuple, idxs []int) Tuple {
	c := a.Make(len(idxs))
	for i, ix := range idxs {
		c[i] = t[ix]
	}
	return c
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// CompareAt orders two tuples on the given key columns.
func CompareAt(a, b Tuple, keys []int) int {
	for _, k := range keys {
		if c := Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// hashSeed starts every hash; hashMul steps the string words (both are
// splitmix64's constants: any odd numbers with mixed bits would do).
const (
	hashSeed uint64 = 0x9e3779b97f4a7c15
	hashMul  uint64 = 0xbf58476d1ce4e5b9
)

// mix64 is murmur3's finalizer: every input bit flips each output bit with
// probability about a half, so a consumer may take whichever bits it likes —
// the low ones (hash-table slots, the statistics sketch), the high ones (the
// partitioned join's partition, a join's key bitmap) or both.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashNumber folds a number into a hash state by its value: the bits of its
// float64, which is what Compare compares an int and a float by, so values
// Equal calls equal hash equally whatever their kinds (+0 and -0 included).
// Ints beyond 2^53 that round to one float64 share a hash; Equal tells them
// apart.
func hashNumber(h uint64, f float64) uint64 {
	return mix64(h ^ math.Float64bits(f+0)) // -0 + 0 is +0
}

// HashValue folds one value into a hash state, a string eight bytes at a
// time: HashAt's step, for a key whose columns lie in more than one place. No
// hash is persisted, so the values may change between versions.
func HashValue(h uint64, v *Value) uint64 {
	switch v.K {
	case KindInt, KindDate:
		return hashNumber(h, float64(v.I))
	case KindFloat:
		return hashNumber(h, v.F)
	case KindString:
		s := v.S
		h ^= uint64(len(s))
		for ; len(s) >= 8; s = s[8:] {
			w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
			h = (h ^ w) * hashMul
			h ^= h >> 32
		}
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * hashMul
		}
	}
	return mix64(h)
}

// HashAt returns a 64-bit hash of the key columns, suitable for hash joins
// and hash aggregation: keys that are Equal column by column hash equally.
// It allocates nothing.
func HashAt(t Tuple, keys []int) uint64 {
	h := hashSeed
	for _, k := range keys {
		h = HashValue(h, &t[k])
	}
	return h
}

// Hash1 is HashAt for a single key column, for hot loops that would
// otherwise build a one-element key slice per tuple. Hash1(t, k) ==
// HashAt(t, []int{k}).
func Hash1(t Tuple, key int) uint64 {
	return HashValue(hashSeed, &t[key])
}

// HashSeed is the state HashAt starts from.
const HashSeed = hashSeed

// HashNumber folds the number of kind k with payload bits (an int64 for an
// int or a date, the IEEE bits of a float: an entry of a page's number
// vector) into h exactly as HashValue folds the Value.
func HashNumber(h uint64, k Kind, bits uint64) uint64 {
	f := float64(int64(bits))
	if k == KindFloat {
		f = math.Float64frombits(bits)
	}
	return hashNumber(h, f)
}

// HashEncoded folds the encoded value at the start of b (one ValueWidth
// accepted) into the hash state h exactly as HashAt folds the decoded value:
// from HashSeed over a row's encoded key columns it is HashAt of the decoded
// row. A string is hashed over its bytes where they lie (HashValue's loop, on
// a []byte).
func HashEncoded(h uint64, b []byte) uint64 {
	if k := Kind(b[0]); k != KindString {
		return HashNumber(h, k, binary.LittleEndian.Uint64(b[1:]))
	}
	n, w := binary.Uvarint(b[1:])
	s := b[1+w : 1+w+int(n)]
	h ^= uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = (h ^ binary.LittleEndian.Uint64(s)) * hashMul
		h ^= h >> 32
	}
	for _, c := range s {
		h = (h ^ uint64(c)) * hashMul
	}
	return mix64(h)
}

// Column describes one schema column.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, k Kind) Column { return Column{Name: name, Kind: k} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex but panics on unknown names; used when building
// the fixed benchmark plans where a miss is a programming error.
func (s *Schema) MustColIndex(name string) int {
	ix := s.ColIndex(name)
	if ix < 0 {
		panic(fmt.Sprintf("tuple: schema has no column %q (have %s)", name, s))
	}
	return ix
}

// Project returns the schema of a projection keeping columns at idxs.
func (s *Schema) Project(idxs []int) *Schema {
	out := &Schema{Cols: make([]Column, len(idxs))}
	for i, ix := range idxs {
		out.Cols[i] = s.Cols[ix]
	}
	return out
}

// Concat returns the schema of a join output (a's columns then b's).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// String renders the schema as name:kind pairs.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	b.WriteByte(']')
	return b.String()
}

// ---- Binary encoding -------------------------------------------------------
//
// The slotted-page layer stores tuples with a simple self-describing
// encoding: per value a 1-byte kind tag followed by 8 bytes (int/float/date)
// or a uvarint length + bytes (string). The encoding is stable so signatures
// and on-"disk" bytes are deterministic across runs.

// EncodedSize returns the number of bytes Encode will produce.
func (t Tuple) EncodedSize() int {
	n := 0
	for _, v := range t {
		n++ // kind tag
		switch v.K {
		case KindInt, KindFloat, KindDate:
			n += 8
		case KindString:
			var tmp [binary.MaxVarintLen64]byte
			n += binary.PutUvarint(tmp[:], uint64(len(v.S)))
			n += len(v.S)
		}
	}
	return n
}

// Encode appends the tuple's binary form to dst and returns the result.
func (t Tuple) Encode(dst []byte) []byte {
	for _, v := range t {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KindInt, KindDate:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v.I))
			dst = append(dst, b[:]...)
		case KindFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case KindString:
			var tmp [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// EncodingError reports bytes that are not the encoding of a row: damaged or
// hostile page bytes surface as this error from every decoding entry point,
// never as a panic or an out-of-range slice.
type EncodingError struct {
	Col    int // the column the walk stopped at
	Reason string
}

// Error implements error.
func (e *EncodingError) Error() string {
	return fmt.Sprintf("tuple: %s at column %d", e.Reason, e.Col)
}

// ValueWidth returns the encoded length of the value at the start of b, or
// an *EncodingError (with Col 0) when no value starts there.
func ValueWidth(b []byte) (int, error) {
	w, why := valueWidth(b)
	if why != "" {
		return 0, &EncodingError{Reason: why}
	}
	return w, nil
}

// valueWidth is ValueWidth with the failure as a bare reason ("" for none).
func valueWidth(b []byte) (int, string) {
	if len(b) == 0 {
		return 0, "truncated encoding"
	}
	switch Kind(b[0]) {
	case KindInt, KindFloat, KindDate:
		if len(b) < 9 {
			return 0, "truncated number"
		}
		return 9, ""
	case KindString:
		n, w := binary.Uvarint(b[1:])
		if w <= 0 || n > uint64(len(b)-1-w) {
			return 0, "truncated string"
		}
		return 1 + w + int(n), ""
	default:
		return 0, fmt.Sprintf("bad kind tag %d", b[0])
	}
}

// Offsets walks one encoded row of len(offs)-1 columns that starts at byte
// base of its page: offs[i] becomes the page offset of column i and the last
// entry the offset just past the row (the caller sees to it that
// base+len(b) fits a uint16). After a nil return every column is a value
// ValueWidth accepted, so DecodeInto, DecodeValue and CompareEncoded may read
// the page from offs[i] on unchecked. It is what the page layouts are derived
// with (page.Locate, the B+tree's leaves), once per resident page.
func Offsets(b []byte, base int, offs []uint16) error {
	if n := len(offs) - 1; len(b) == 9*n {
		// As long as n numbers: if every tag agrees, the offsets are
		// arithmetic (a page of a numbers-only table takes this path for
		// every row).
		const numbers = 1<<KindInt | 1<<KindFloat | 1<<KindDate
		other := byte(0) // becomes non-zero at a tag that is not a number's
		for i := 0; i < n; i++ {
			offs[i] = uint16(base + 9*i)
			tag := b[9*i]
			other |= tag>>3 | ^(numbers>>(tag&7))&1
		}
		if offs[n] = uint16(base + 9*n); other == 0 {
			return nil
		}
	}
	off := 0
	for i := 0; i < len(offs)-1; i++ {
		offs[i] = uint16(base + off)
		if len(b)-off >= 9 && kindGroup(Kind(b[off])) == 1 {
			off += 9 // a number: valueWidth's common case, without the call
			continue
		}
		w, why := valueWidth(b[off:])
		if why != "" {
			return &EncodingError{Col: i, Reason: why}
		}
		off += w
	}
	offs[len(offs)-1] = uint16(base + off)
	return nil
}

// Vectors derives a located page's number vectors — its rows' column
// offsets offs (Offsets' output, rows rows of ncols columns over buf) given —
// once, for every reader of the resident page: kinds[c] is the kind of column
// c's values when they are all numbers of that one kind (INT, FLOAT or DATE)
// and 0 otherwise, and vecs holds, column after column, the payloads of the
// columns of a kind, one a row in row order: an int64 for an int or a date,
// the IEEE bits of a float. A page of no rows, or of no such column, has none
// (nil, nil).
func Vectors(buf []byte, offs []uint16, rows, ncols int) (kinds []uint8, vecs []uint64) {
	stride, n := ncols+1, 0
	kinds = make([]uint8, ncols)
	for c := 0; c < ncols && rows > 0; c++ {
		k := buf[offs[c]]
		for r := 1; r < rows && k != 0; r++ {
			if buf[offs[r*stride+c]] != k {
				k = 0
			}
		}
		if kindGroup(Kind(k)) == 1 {
			kinds[c], n = k, n+1
		}
	}
	if n == 0 {
		return nil, nil
	}
	vecs = make([]uint64, 0, n*rows)
	for c, k := range kinds {
		for r := 0; r < rows && k != 0; r++ {
			vecs = append(vecs, binary.LittleEndian.Uint64(buf[offs[r*stride+c]+1:]))
		}
	}
	return kinds, vecs
}

// SetNumber is DecodeInto of the number of kind k with payload bits: dst must
// be the zero Value, and only the fields the kind uses are written.
func SetNumber(dst *Value, k Kind, bits uint64) {
	if dst.K = k; k == KindFloat {
		dst.F = math.Float64frombits(bits)
	} else {
		dst.I = int64(bits)
	}
}

// DecodeValue materializes the encoded value at the start of b (one
// ValueWidth accepted). Only a string allocates.
func DecodeValue(b []byte) Value {
	var v Value
	DecodeInto(&v, b)
	return v
}

// DecodeInto is DecodeValue into *dst, which must be the zero Value (a
// column of a row RowArena.Make just carved): only the fields the kind uses
// are written, so a number costs two stores and no pointer write.
func DecodeInto(dst *Value, b []byte) {
	if k := Kind(b[0]); k != KindString {
		SetNumber(dst, k, binary.LittleEndian.Uint64(b[1:]))
		return
	}
	n, w := binary.Uvarint(b[1:])
	dst.K, dst.S = KindString, string(b[1+w:1+w+int(n)])
}

// CompareEncoded orders the encoded value at the start of b (one ValueWidth
// accepted) against v exactly as Compare orders the decoded value — the same
// total preorder, numeric kinds compared across kinds — without building a
// Value or a string. It is the one encoded-vs-Value comparison: B+tree key
// search and the scan µEngine's in-place filters both use it.
func CompareEncoded(b []byte, v Value) int {
	if k := Kind(b[0]); k != KindString {
		return CompareNumber(k, binary.LittleEndian.Uint64(b[1:]), v)
	}
	if v.K != KindString {
		return 1 // strings order after every other kind
	}
	n, w := binary.Uvarint(b[1:])
	s := b[1+w : 1+w+int(n)]
	// The conversions do not allocate: the compiler compares the bytes.
	switch {
	case string(s) < v.S:
		return -1
	case string(s) > v.S:
		return 1
	}
	return 0
}

// CompareNumber is CompareEncoded of the number of kind k with payload bits
// (SetNumber's arguments): it orders that number against v as Compare would.
func CompareNumber(k Kind, bits uint64, v Value) int {
	if kindGroup(v.K) != 1 {
		if v.K == KindString {
			return -1
		}
		return 1 // a number orders after the invalid value
	}
	if k != KindFloat && v.K != KindFloat {
		return Sign(int64(bits), v.I)
	}
	af, bf := float64(int64(bits)), float64(v.I) // (not v.AsFloat(): it would copy v)
	if k == KindFloat {
		af = math.Float64frombits(bits)
	}
	if v.K == KindFloat {
		bf = v.F
	}
	return Sign(af, bf) // as Compare: a NaN is neither below nor above anything
}

// Sign is -1, 0 or +1 for a below, equal to (or unordered with: a NaN) or
// above b, without a branch: a scan compares a column of unsorted values
// through it, as Compare orders two numbers of one kind.
func Sign[T int64 | float64](a, b T) int {
	o := 0
	if a < b {
		o = -1
	}
	if a > b {
		o = 1
	}
	return o
}

// Decode parses a tuple with ncols columns from b, returning the tuple and
// the number of bytes consumed.
func Decode(b []byte, ncols int) (Tuple, int, error) {
	return decodeInto(b, make(Tuple, ncols))
}

// DecodeArena is Decode with the row carved from an arena (bulk decode paths
// — page reads, spill readers — decode many rows back to back and pay one
// chunk allocation instead of one per row).
func DecodeArena(b []byte, ncols int, a *RowArena) (Tuple, int, error) {
	return decodeInto(b, a.Make(ncols))
}

// decodeInto is the full-row decoder of Decode and DecodeArena. It shares no
// code with Offsets/DecodeValue, the scan µEngine's walk: the iterator
// engine that checks the scanner's answers reads pages through this one.
func decodeInto(b []byte, t Tuple) (Tuple, int, error) {
	off := 0
	for i := range t {
		if off >= len(b) {
			return nil, 0, &EncodingError{Col: i, Reason: "truncated encoding"}
		}
		k := Kind(b[off])
		off++
		switch k {
		case KindInt, KindDate:
			if off+8 > len(b) {
				return nil, 0, &EncodingError{Col: i, Reason: "truncated number"}
			}
			v := int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			t[i] = Value{K: k, I: v}
		case KindFloat:
			if off+8 > len(b) {
				return nil, 0, &EncodingError{Col: i, Reason: "truncated number"}
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			t[i] = Value{K: k, F: v}
		case KindString:
			n, w := binary.Uvarint(b[off:])
			if w <= 0 || n > uint64(len(b)-off-w) {
				return nil, 0, &EncodingError{Col: i, Reason: "truncated string"}
			}
			off += w
			t[i] = Value{K: KindString, S: string(b[off : off+int(n)])}
			off += int(n)
		default:
			return nil, 0, &EncodingError{Col: i, Reason: fmt.Sprintf("bad kind tag %d", k)}
		}
	}
	return t, off, nil
}
