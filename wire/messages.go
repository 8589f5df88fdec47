// Message payload encodings. Every message is a struct with an Encode method
// (appending to a caller-supplied buffer, so a connection can reuse one
// scratch buffer for all its frames) and a Decode* function returning a
// *ProtocolError on any malformed input. Decoders require the payload to be
// consumed exactly: trailing bytes are as much a protocol error as missing
// ones.
package wire

import (
	"encoding/binary"

	"qpipe/internal/tuple"
)

// Row is one result row on the wire — an alias of the engine's tuple type,
// so server-side encoding works directly on result batches and client-side
// decoding produces rows interchangeable with the embedded API's.
type Row = tuple.Tuple

// ---- Encoding primitives -----------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// payloadReader decodes primitives with sticky error state; done() enforces
// full consumption.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = protoErrf(format, args...)
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated u64 at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) str() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns payload at offset %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *payloadReader) boolean() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail("bad bool byte 0x%02x at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// count reads a uvarint that sizes a following collection and sanity-bounds
// it against the remaining payload (each element needs at least one byte),
// so a hostile length claim cannot drive a huge allocation.
func (r *payloadReader) count(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("%s count %d exceeds remaining payload (%d bytes)", what, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return protoErrf("%d trailing bytes after message payload", len(r.b)-r.off)
	}
	return nil
}

// ---- Handshake ---------------------------------------------------------------

// Hello is the client's opening message.
type Hello struct {
	// Version is the client's ProtocolVersion.
	Version uint32
	// Client names the connecting program (diagnostics only).
	Client string
}

// Encode appends the payload to dst.
func (m *Hello) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(m.Version))
	return appendString(dst, m.Client)
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := payloadReader{b: b}
	m := Hello{Version: uint32(r.uvarint()), Client: r.str()}
	return m, r.done()
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	// Version is the protocol version the server will speak (equal to the
	// client's — mismatches are refused with an error, not negotiated down).
	Version uint32
	// Banner identifies the server (diagnostics only).
	Banner string
}

// Encode appends the payload to dst.
func (m *Welcome) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(m.Version))
	return appendString(dst, m.Banner)
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	r := payloadReader{b: b}
	m := Welcome{Version: uint32(r.uvarint()), Banner: r.str()}
	return m, r.done()
}

// ---- Requests ----------------------------------------------------------------

// ExecOpts carries the per-query execution options across the wire — the
// subset of the embedded API's functional options that make sense remotely.
// Zero values inherit the server session's (and then the engine's) defaults.
type ExecOpts struct {
	// TimeoutMs is the statement timeout in milliseconds (0 = session
	// default).
	TimeoutMs uint64
	// Parallelism is the intra-operator fan-out (0 = session default).
	Parallelism uint32
	// BatchSize is the tuples-per-batch target (0 = session default).
	BatchSize uint32
	// NoOSP opts the query out of on-demand simultaneous pipelining.
	NoOSP bool
}

func (o *ExecOpts) encode(dst []byte) []byte {
	dst = appendUvarint(dst, o.TimeoutMs)
	dst = appendUvarint(dst, uint64(o.Parallelism))
	dst = appendUvarint(dst, uint64(o.BatchSize))
	return appendBool(dst, o.NoOSP)
}

func (r *payloadReader) execOpts() ExecOpts {
	return ExecOpts{
		TimeoutMs:   r.uvarint(),
		Parallelism: uint32(r.uvarint()),
		BatchSize:   uint32(r.uvarint()),
		NoOSP:       r.boolean(),
	}
}

// Query submits one SQL statement (SELECT, EXPLAIN, or SET — the server's
// per-connection session absorbs SET and answers with a bare Complete).
type Query struct {
	SQL  string
	Opts ExecOpts
}

// Encode appends the payload to dst.
func (m *Query) Encode(dst []byte) []byte {
	dst = appendString(dst, m.SQL)
	return m.Opts.encode(dst)
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(b []byte) (Query, error) {
	r := payloadReader{b: b}
	m := Query{SQL: r.str(), Opts: r.execOpts()}
	return m, r.done()
}

// Prepare compiles a SELECT server-side for repeated execution.
type Prepare struct {
	SQL string
}

// Encode appends the payload to dst.
func (m *Prepare) Encode(dst []byte) []byte { return appendString(dst, m.SQL) }

// DecodePrepare parses a MsgPrepare payload.
func DecodePrepare(b []byte) (Prepare, error) {
	r := payloadReader{b: b}
	m := Prepare{SQL: r.str()}
	return m, r.done()
}

// Execute runs a previously prepared statement.
type Execute struct {
	ID   uint32
	Opts ExecOpts
}

// Encode appends the payload to dst.
func (m *Execute) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(m.ID))
	return m.Opts.encode(dst)
}

// DecodeExecute parses a MsgExecute payload.
func DecodeExecute(b []byte) (Execute, error) {
	r := payloadReader{b: b}
	m := Execute{ID: uint32(r.uvarint()), Opts: r.execOpts()}
	return m, r.done()
}

// Exec runs a SQL script of row-less statements (DDL, INSERT, ANALYZE).
type Exec struct {
	SQL string
}

// Encode appends the payload to dst.
func (m *Exec) Encode(dst []byte) []byte { return appendString(dst, m.SQL) }

// DecodeExec parses a MsgExec payload.
func DecodeExec(b []byte) (Exec, error) {
	r := payloadReader{b: b}
	m := Exec{SQL: r.str()}
	return m, r.done()
}

// CloseStmt frees a prepared statement's server-side resources.
type CloseStmt struct {
	ID uint32
}

// Encode appends the payload to dst.
func (m *CloseStmt) Encode(dst []byte) []byte { return appendUvarint(dst, uint64(m.ID)) }

// DecodeCloseStmt parses a MsgCloseStmt payload.
func DecodeCloseStmt(b []byte) (CloseStmt, error) {
	r := payloadReader{b: b}
	m := CloseStmt{ID: uint32(r.uvarint())}
	return m, r.done()
}

// ---- Responses ---------------------------------------------------------------

// Col is one result column in a RowDesc.
type Col struct {
	Name string
	Kind tuple.Kind
}

// RowDesc announces a result stream's schema. Its column count also tells
// the client how many values each row in the following RowBatch frames
// carries.
type RowDesc struct {
	Cols []Col
}

// Encode appends the payload to dst.
func (m *RowDesc) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(m.Cols)))
	for _, c := range m.Cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// DecodeRowDesc parses a MsgRowDesc payload.
func DecodeRowDesc(b []byte) (RowDesc, error) {
	r := payloadReader{b: b}
	n := r.count("column")
	m := RowDesc{}
	if r.err == nil && n > 0 {
		m.Cols = make([]Col, n)
		for i := range m.Cols {
			m.Cols[i].Name = r.str()
			if r.err == nil {
				if r.off >= len(r.b) {
					r.fail("truncated column kind at offset %d", r.off)
				} else {
					m.Cols[i].Kind = tuple.Kind(r.b[r.off])
					r.off++
				}
			}
		}
	}
	return m, r.done()
}

// Prepared answers a Prepare with the statement's handle and schema.
type Prepared struct {
	ID   uint32
	Desc RowDesc
}

// Encode appends the payload to dst.
func (m *Prepared) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(m.ID))
	return m.Desc.Encode(dst)
}

// DecodePrepared parses a MsgPrepared payload.
func DecodePrepared(b []byte) (Prepared, error) {
	r := payloadReader{b: b}
	m := Prepared{ID: uint32(r.uvarint())}
	if r.err != nil {
		return m, r.done()
	}
	desc, err := DecodeRowDesc(r.b[r.off:])
	if err != nil {
		return m, err
	}
	m.Desc = desc
	r.off = len(r.b)
	return m, r.done()
}

// AppendRowBatch encodes a batch of rows as a MsgRowBatch payload, appending
// to dst: a uvarint row count, then each row in the storage layer's tuple
// encoding. The rows are read, never retained.
func AppendRowBatch(dst []byte, rows []Row) []byte {
	dst = appendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = appendUvarint(dst, uint64(len(row)))
		dst = row.Encode(dst)
	}
	return dst
}

// DecodeRowBatch parses a MsgRowBatch payload. Row arrays are carved from
// the arena in bulk (one chunk allocation per batch, not per row).
func DecodeRowBatch(b []byte, arena *tuple.RowArena) ([]Row, error) {
	r := payloadReader{b: b}
	n := r.count("row")
	if r.err != nil {
		return nil, r.err
	}
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		ncols := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if ncols > uint64(len(r.b)-r.off) {
			return nil, protoErrf("row %d claims %d columns with %d bytes left", i, ncols, len(r.b)-r.off)
		}
		row, used, err := tuple.DecodeArena(r.b[r.off:], int(ncols), arena)
		if err != nil {
			return nil, protoErrf("row %d: %v", i, err)
		}
		r.off += used
		rows = append(rows, row)
	}
	return rows, r.done()
}

// Complete ends a successful request.
type Complete struct {
	// Rows is the number of result rows streamed (Query/Execute) or affected
	// (Exec).
	Rows int64
}

// Encode appends the payload to dst.
func (m *Complete) Encode(dst []byte) []byte { return appendU64(dst, uint64(m.Rows)) }

// DecodeComplete parses a MsgComplete payload.
func DecodeComplete(b []byte) (Complete, error) {
	r := payloadReader{b: b}
	m := Complete{Rows: int64(r.u64())}
	return m, r.done()
}

// Stat is one named server counter.
type Stat struct {
	Name  string
	Value int64
}

// StatsResult answers MsgStats with named counters. Names, not positions,
// are the contract — servers may add counters without a version bump.
type StatsResult struct {
	Stats []Stat
}

// Encode appends the payload to dst.
func (m *StatsResult) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(m.Stats)))
	for _, s := range m.Stats {
		dst = appendString(dst, s.Name)
		dst = appendU64(dst, uint64(s.Value))
	}
	return dst
}

// DecodeStatsResult parses a MsgStatsResult payload.
func DecodeStatsResult(b []byte) (StatsResult, error) {
	r := payloadReader{b: b}
	n := r.count("stat")
	m := StatsResult{}
	if r.err == nil && n > 0 {
		m.Stats = make([]Stat, n)
		for i := range m.Stats {
			m.Stats[i].Name = r.str()
			m.Stats[i].Value = int64(r.u64())
		}
	}
	return m, r.done()
}

// ---- Fuzzing hook ------------------------------------------------------------

// DecodeMessage dispatches a payload to the decoder for its message type —
// the single entry point FuzzFrameDecode drives, and a convenience for
// loops that switch on the frame type anyway. Types without a payload
// (Cancel, Stats, Quit) require an empty payload. Unknown types are a
// *ProtocolError.
func DecodeMessage(t MsgType, payload []byte) (any, error) {
	switch t {
	case MsgHello:
		return DecodeHello(payload)
	case MsgWelcome:
		return DecodeWelcome(payload)
	case MsgQuery:
		return DecodeQuery(payload)
	case MsgPrepare:
		return DecodePrepare(payload)
	case MsgPrepared:
		return DecodePrepared(payload)
	case MsgExecute:
		return DecodeExecute(payload)
	case MsgExec:
		return DecodeExec(payload)
	case MsgCloseStmt:
		return DecodeCloseStmt(payload)
	case MsgRowDesc:
		return DecodeRowDesc(payload)
	case MsgRowBatch:
		var arena tuple.RowArena
		return DecodeRowBatch(payload, &arena)
	case MsgComplete:
		return DecodeComplete(payload)
	case MsgError:
		return DecodeError(payload)
	case MsgStatsResult:
		return DecodeStatsResult(payload)
	case MsgCancel, MsgStats, MsgQuit:
		if len(payload) != 0 {
			return nil, protoErrf("%s carries no payload, got %d bytes", t, len(payload))
		}
		return nil, nil
	default:
		return nil, protoErrf("unknown message type 0x%02x", byte(t))
	}
}
