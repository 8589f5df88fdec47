package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"qpipe/internal/tuple"
)

// writeFrameBytes renders one frame to a byte slice.
func writeFrameBytes(t *testing.T, mt MsgType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, mt, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		mt      MsgType
		payload []byte
	}{
		{MsgQuit, nil},
		{MsgCancel, []byte{}},
		{MsgQuery, []byte("hello world")},
		{MsgRowBatch, bytes.Repeat([]byte{0xAB}, 100_000)},
	}
	var scratch []byte
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.mt, tc.payload); err != nil {
			t.Fatal(err)
		}
		mt, payload, s, err := ReadFrame(&buf, scratch)
		scratch = s
		if err != nil {
			t.Fatalf("%s: %v", tc.mt, err)
		}
		if mt != tc.mt {
			t.Fatalf("type %s, want %s", mt, tc.mt)
		}
		if len(payload) != len(tc.payload) || (len(payload) > 0 && !bytes.Equal(payload, tc.payload)) {
			t.Fatalf("%s: payload mismatch (%d bytes vs %d)", tc.mt, len(payload), len(tc.payload))
		}
		// A frame encoded behind HeaderSize free bytes and sealed with
		// PutHeader is the frame WriteFrame writes.
		frame := append(make([]byte, HeaderSize), tc.payload...)
		if err := PutHeader(frame, tc.mt); err != nil {
			t.Fatal(err)
		}
		if want := writeFrameBytes(t, tc.mt, tc.payload); !bytes.Equal(frame, want) {
			t.Fatalf("%s: PutHeader gives % x, WriteFrame % x", tc.mt, frame[:HeaderSize], want[:HeaderSize])
		}
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	_, _, _, err := ReadFrame(bytes.NewReader(nil), nil)
	if err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := writeFrameBytes(t, MsgQuery, []byte("SELECT 1"))
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if err == io.EOF && cut >= 4 {
			// Once the length header is complete, a truncation must NOT look
			// like a clean close.
			t.Fatalf("cut at %d: clean io.EOF for a truncated frame", cut)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	_, _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *ProtocolError", err)
	}
}

func TestReadFrameZeroLength(t *testing.T) {
	_, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *ProtocolError", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	cases := []struct {
		name    string
		mt      MsgType
		payload []byte
		want    any
	}{
		{"hello", MsgHello, (&Hello{Version: 1, Client: "qpipe-shell"}).Encode(nil),
			Hello{Version: 1, Client: "qpipe-shell"}},
		{"welcome", MsgWelcome, (&Welcome{Version: 1, Banner: "qpipe-server"}).Encode(nil),
			Welcome{Version: 1, Banner: "qpipe-server"}},
		{"query", MsgQuery, (&Query{SQL: "SELECT 1", Opts: ExecOpts{TimeoutMs: 500, Parallelism: 4, BatchSize: 128, NoOSP: true}}).Encode(nil),
			Query{SQL: "SELECT 1", Opts: ExecOpts{TimeoutMs: 500, Parallelism: 4, BatchSize: 128, NoOSP: true}}},
		{"prepare", MsgPrepare, (&Prepare{SQL: "SELECT a FROM t"}).Encode(nil),
			Prepare{SQL: "SELECT a FROM t"}},
		{"prepared", MsgPrepared, (&Prepared{ID: 7, Desc: RowDesc{Cols: []Col{{"a", tuple.KindInt}, {"b", tuple.KindString}}}}).Encode(nil),
			Prepared{ID: 7, Desc: RowDesc{Cols: []Col{{"a", tuple.KindInt}, {"b", tuple.KindString}}}}},
		{"execute", MsgExecute, (&Execute{ID: 7, Opts: ExecOpts{Parallelism: 2}}).Encode(nil),
			Execute{ID: 7, Opts: ExecOpts{Parallelism: 2}}},
		{"exec", MsgExec, (&Exec{SQL: "CREATE TABLE t (a INT)"}).Encode(nil),
			Exec{SQL: "CREATE TABLE t (a INT)"}},
		{"closestmt", MsgCloseStmt, (&CloseStmt{ID: 9}).Encode(nil), CloseStmt{ID: 9}},
		{"rowdesc", MsgRowDesc, (&RowDesc{Cols: []Col{{"n", tuple.KindFloat}}}).Encode(nil),
			RowDesc{Cols: []Col{{"n", tuple.KindFloat}}}},
		{"rowdesc-empty", MsgRowDesc, (&RowDesc{}).Encode(nil), RowDesc{}},
		{"complete", MsgComplete, (&Complete{Rows: -3}).Encode(nil), Complete{Rows: -3}},
		{"stats", MsgStatsResult, (&StatsResult{Stats: []Stat{{"queries", 12}, {"shares", -1}}}).Encode(nil),
			StatsResult{Stats: []Stat{{"queries", 12}, {"shares", -1}}}},
	}
	for _, tc := range cases {
		got, err := DecodeMessage(tc.mt, tc.payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := []Row{
		{tuple.I64(1), tuple.Str("x"), tuple.F64(2.5), tuple.Date(42)},
		{tuple.I64(-9), tuple.Str(""), tuple.F64(-0.0), tuple.Date(0)},
	}
	payload := AppendRowBatch(nil, rows)
	var arena tuple.RowArena
	got, err := DecodeRowBatch(payload, &arena)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got %v, want %v", got, rows)
	}
	// Ragged batches round-trip too: each row carries its own width.
	ragged := []Row{{tuple.I64(1)}, {tuple.I64(1), tuple.Str("two")}}
	got, err = DecodeRowBatch(AppendRowBatch(nil, ragged), &arena)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ragged) {
		t.Fatalf("ragged: got %v, want %v", got, ragged)
	}
	// Empty batch.
	got, err = DecodeRowBatch(AppendRowBatch(nil, nil), &arena)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: got %v, %v", got, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{
		Code: CodeUnknownColumn,
		Msg:  `qpipe: unknown column "x"`,
		Fields: map[string]string{
			"column": "x",
			"schema": "[a:int, b:string]",
		},
	}
	got, err := DecodeError(e.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v, want %+v", got, e)
	}
	if got.Field("column") != "x" || got.Field("missing") != "" {
		t.Fatalf("Field lookups wrong: %+v", got)
	}
	// No fields.
	bare := &Error{Code: CodeClosed, Msg: "closed"}
	got, err = DecodeError(bare.Encode(nil))
	if err != nil || got.Code != CodeClosed || got.Msg != "closed" || len(got.Fields) != 0 {
		t.Fatalf("bare: got %+v, %v", got, err)
	}
}

// TestDecodersRejectMalformed drives every decoder over truncations and
// trailing garbage: all must return *ProtocolError, never panic, never
// succeed.
func TestDecodersRejectMalformed(t *testing.T) {
	payloads := map[MsgType][]byte{
		MsgHello:       (&Hello{Version: 1, Client: "c"}).Encode(nil),
		MsgWelcome:     (&Welcome{Version: 1, Banner: "b"}).Encode(nil),
		MsgQuery:       (&Query{SQL: "SELECT 1", Opts: ExecOpts{TimeoutMs: 9}}).Encode(nil),
		MsgPrepare:     (&Prepare{SQL: "SELECT 1"}).Encode(nil),
		MsgPrepared:    (&Prepared{ID: 3, Desc: RowDesc{Cols: []Col{{"a", tuple.KindInt}}}}).Encode(nil),
		MsgExecute:     (&Execute{ID: 3}).Encode(nil),
		MsgExec:        (&Exec{SQL: "CREATE TABLE t (a INT)"}).Encode(nil),
		MsgCloseStmt:   (&CloseStmt{ID: 3}).Encode(nil),
		MsgRowDesc:     (&RowDesc{Cols: []Col{{"a", tuple.KindInt}}}).Encode(nil),
		MsgRowBatch:    AppendRowBatch(nil, []Row{{tuple.I64(1), tuple.Str("s")}}),
		MsgComplete:    (&Complete{Rows: 5}).Encode(nil),
		MsgError:       (&Error{Code: CodeParse, Msg: "m", Fields: map[string]string{"k": "v"}}).Encode(nil),
		MsgStatsResult: (&StatsResult{Stats: []Stat{{"queries", 1}}}).Encode(nil),
	}
	for mt, good := range payloads {
		if _, err := DecodeMessage(mt, good); err != nil {
			t.Fatalf("%s: good payload rejected: %v", mt, err)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, err := DecodeMessage(mt, good[:cut]); err == nil {
				t.Fatalf("%s truncated at %d: decoder accepted it", mt, cut)
			} else if pe := (*ProtocolError)(nil); !errors.As(err, &pe) {
				t.Fatalf("%s truncated at %d: %T, want *ProtocolError", mt, cut, err)
			}
		}
		trailing := append(append([]byte(nil), good...), 0xFF)
		if _, err := DecodeMessage(mt, trailing); err == nil {
			t.Fatalf("%s with trailing byte: decoder accepted it", mt)
		}
	}
	// Payload-less messages must reject payloads.
	for _, mt := range []MsgType{MsgCancel, MsgStats, MsgQuit} {
		if _, err := DecodeMessage(mt, []byte{1}); err == nil {
			t.Fatalf("%s with payload: accepted", mt)
		}
	}
	if _, err := DecodeMessage(MsgType(0xEE), nil); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

// TestRowBatchHostileCounts pins the allocation bound: a payload claiming
// billions of rows or columns in a few bytes must fail fast, not allocate.
func TestRowBatchHostileCounts(t *testing.T) {
	var arena tuple.RowArena
	huge := appendUvarint(nil, 1<<40) // row count with no rows behind it
	if _, err := DecodeRowBatch(huge, &arena); err == nil {
		t.Fatal("hostile row count accepted")
	}
	one := appendUvarint(nil, 1)
	one = appendUvarint(one, 1<<40) // column count
	if _, err := DecodeRowBatch(one, &arena); err == nil {
		t.Fatal("hostile column count accepted")
	}
}
