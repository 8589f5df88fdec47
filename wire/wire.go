// Package wire defines QPipe's client/server wire protocol: length-prefixed
// binary frames carrying a small, versioned message set (startup handshake,
// query/prepare/execute, streaming row batches, completion, typed errors,
// server statistics).
//
// # Frame format
//
// Every message travels as one frame:
//
//	+----------------+-----------+------------------+
//	| length (u32 BE)| type (u8) | payload (length-1)|
//	+----------------+-----------+------------------+
//
// The length covers the type byte plus the payload, so an empty message is
// length 1. Frames larger than MaxFrameSize are rejected with a
// *ProtocolError before any allocation proportional to the claimed length.
//
// # Payload encoding
//
// Payload fields use the same primitives as the storage layer's tuple
// encoding: fixed 8-byte little-endian words for 64-bit integers, uvarints
// for counts, and uvarint-length-prefixed bytes for strings. Row batches
// embed rows in the exact binary form the page layer uses (tuple.Encode):
// the server encodes each row of a result batch straight into the frame,
// with no form in between.
//
// Malformed input of any shape — truncated frames, trailing bytes, bad kind
// tags, over-long claims — decodes to a typed *ProtocolError, never a panic
// (FuzzFrameDecode holds the whole decoder to that).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol's current version. The client sends
// its version in Hello; the server refuses mismatches in the handshake with
// a CodeProtocol error naming both versions.
const ProtocolVersion = 1

// MaxFrameSize bounds a single frame (type byte + payload). Frames claiming
// more are a protocol error: the reader rejects them without allocating.
const MaxFrameSize = 16 << 20

// MsgType identifies a frame's message.
type MsgType byte

// The message set. Lower-case values originate at the client, upper-case at
// the server (mnemonic only — the byte values are the protocol).
const (
	// MsgHello opens a connection: client → server, {version, client name}.
	MsgHello MsgType = 'h'
	// MsgWelcome accepts the handshake: server → client, {version, banner}.
	MsgWelcome MsgType = 'W'
	// MsgQuery submits one SQL statement: client → server, {sql, options}.
	MsgQuery MsgType = 'q'
	// MsgPrepare compiles a SELECT for reuse: client → server, {sql}.
	MsgPrepare MsgType = 'p'
	// MsgPrepared answers MsgPrepare: server → client, {id, schema}.
	MsgPrepared MsgType = 'P'
	// MsgExecute runs a prepared statement: client → server, {id, options}.
	MsgExecute MsgType = 'e'
	// MsgExec runs a DDL/INSERT script: client → server, {sql}.
	MsgExec MsgType = 'x'
	// MsgCloseStmt frees a prepared statement: client → server, {id}.
	MsgCloseStmt MsgType = 'f'
	// MsgRowDesc begins a result stream: server → client, {columns}.
	MsgRowDesc MsgType = 'D'
	// MsgRowBatch carries one batch of encoded rows: server → client.
	MsgRowBatch MsgType = 'B'
	// MsgComplete ends a successful request: server → client, {row count}.
	MsgComplete MsgType = 'C'
	// MsgError ends a failed request: server → client, {typed error}.
	MsgError MsgType = 'E'
	// MsgCancel aborts the in-flight query: client → server, empty.
	MsgCancel MsgType = 'c'
	// MsgStats requests server counters: client → server, empty.
	MsgStats MsgType = 's'
	// MsgStatsResult answers MsgStats: server → client, {named counters}.
	MsgStatsResult MsgType = 'S'
	// MsgQuit closes the connection cleanly: client → server, empty.
	MsgQuit MsgType = 'Q'
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgWelcome:
		return "Welcome"
	case MsgQuery:
		return "Query"
	case MsgPrepare:
		return "Prepare"
	case MsgPrepared:
		return "Prepared"
	case MsgExecute:
		return "Execute"
	case MsgExec:
		return "Exec"
	case MsgCloseStmt:
		return "CloseStmt"
	case MsgRowDesc:
		return "RowDesc"
	case MsgRowBatch:
		return "RowBatch"
	case MsgComplete:
		return "Complete"
	case MsgError:
		return "Error"
	case MsgCancel:
		return "Cancel"
	case MsgStats:
		return "Stats"
	case MsgStatsResult:
		return "StatsResult"
	case MsgQuit:
		return "Quit"
	default:
		return fmt.Sprintf("MsgType(0x%02x)", byte(t))
	}
}

// ProtocolError reports a violation of the wire protocol itself — a
// truncated or oversized frame, a malformed payload, an unexpected message
// for the connection's state. It is terminal for the connection: neither
// side can resynchronize a corrupt frame stream.
type ProtocolError struct {
	Reason string
}

// Error implements error.
func (e *ProtocolError) Error() string { return "qpipe/wire: protocol error: " + e.Reason }

func protoErrf(format string, args ...any) *ProtocolError {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// HeaderSize is the length of a frame's header: the u32 length and the
// type byte.
const HeaderSize = 5

// WriteFrame writes one frame, header then payload, in two Write calls.
// The payload may be nil for empty messages. Callers pass a buffered writer
// (a bufio.Writer they flush when they are done), so a frame costs no
// system call of its own; on a bare socket every frame would be two.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	var hdr [HeaderSize]byte
	if err := putHeader(hdr[:], t, len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// PutHeader fills in the header of frame, a whole frame whose first
// HeaderSize bytes were left free and whose rest is the payload: a writer
// that encodes the payload behind the header hands the frame on in one
// Write. A frame above MaxFrameSize is refused as WriteFrame refuses it.
func PutHeader(frame []byte, t MsgType) error {
	return putHeader(frame, t, len(frame)-HeaderSize)
}

func putHeader(hdr []byte, t MsgType, payload int) error {
	if payload+1 > MaxFrameSize {
		return protoErrf("frame too large to send: %d bytes (max %d)", payload+1, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(payload+1))
	hdr[4] = byte(t)
	return nil
}

// ReadFrame reads one frame, reusing buf for the payload when it fits (the
// returned slice aliases it, valid until the next call that reuses it).
// io.EOF surfaces unchanged only at a clean frame boundary; a connection
// dying mid-frame is an io.ErrUnexpectedEOF. Oversized and zero-length
// frames are a *ProtocolError.
func ReadFrame(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, buf, protoErrf("zero-length frame")
	}
	if n > MaxFrameSize {
		return 0, nil, buf, protoErrf("frame of %d bytes exceeds the %d-byte limit", n, MaxFrameSize)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, buf, unexpectedEOF(err)
	}
	t := MsgType(hdr[4])
	body := int(n) - 1
	if body == 0 {
		return t, nil, buf, nil
	}
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	payload := buf[:body]
	if _, err := io.ReadFull(r, payload); err != nil {
		return t, nil, buf, unexpectedEOF(err)
	}
	return t, payload, buf, nil
}

// unexpectedEOF converts a mid-frame EOF into io.ErrUnexpectedEOF so callers
// can distinguish a clean close (between frames) from a truncated one.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
