// The wire form of the engine's typed error family. A MsgError frame
// carries an ErrCode plus the rendered message and a set of structured
// string fields — enough for the client side to reconstruct the exact
// exported error type (qpipe.MarshalWireError / qpipe.UnmarshalWireError do
// the mapping), so a remote caller's errors.As branches work unchanged
// against a server a network away.
package wire

import "sort"

// ErrCode identifies which typed error a MsgError carries.
type ErrCode uint16

// The error codes. CodeUnknown is the catch-all for server-side errors
// outside the typed family: the client surfaces them as opaque errors
// carrying the rendered message.
const (
	CodeUnknown ErrCode = iota
	// CodeProtocol: the peer violated the wire protocol (see ProtocolError).
	CodeProtocol
	// CodeClosed: the server is draining; new queries are rejected
	// (qpipe.ErrClosed).
	CodeClosed
	// CodeOverloaded: admission control shed the query, or the server's
	// connection limit refused the connection (*qpipe.OverloadedError).
	CodeOverloaded
	// CodeDeadline: the statement timeout or deadline expired
	// (*qpipe.DeadlineError).
	CodeDeadline
	// CodePanic: an operator panicked and was quarantined
	// (*qpipe.PanicError).
	CodePanic
	// CodeParse: the SQL text failed to parse (*sql.ParseError).
	CodeParse
	// CodeUnknownTable: a table the catalog does not know
	// (*qpipe.UnknownTableError).
	CodeUnknownTable
	// CodeUnknownColumn: a column that does not resolve
	// (*qpipe.UnknownColumnError).
	CodeUnknownColumn
	// CodeTypeMismatch: incompatible kinds in an expression
	// (*qpipe.TypeMismatchError).
	CodeTypeMismatch
	// CodeDuplicateColumn: duplicate output column
	// (*qpipe.DuplicateColumnError).
	CodeDuplicateColumn
	// CodeAmbiguousColumn: a reference more than one table owns
	// (*qpipe.AmbiguousColumnError).
	CodeAmbiguousColumn
	// CodeStatement: statement routed to the wrong entry point
	// (*qpipe.StatementError).
	CodeStatement
	// CodeOption: invalid or conflicting per-query option
	// (*qpipe.OptionError).
	CodeOption
	// CodeBatch: a batch submission failed (*qpipe.BatchError).
	CodeBatch
	// CodeTxState: BEGIN inside an open transaction, or COMMIT/ROLLBACK
	// outside one (*qpipe.TxStateError).
	CodeTxState
	// CodeTxConflict: a read of a table the session's open transaction has
	// written (*qpipe.TxConflictError).
	CodeTxConflict
)

// Error is a typed engine error in transit. It implements error (rendering
// the original message) so an unmapped code still reads correctly; clients
// normally pass it through qpipe.UnmarshalWireError to get the concrete
// exported type back.
type Error struct {
	Code ErrCode
	// Msg is the original error's rendered text.
	Msg string
	// Fields carries the typed error's structured data (e.g. "table",
	// "max_concurrent") keyed by stable names.
	Fields map[string]string
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// Field returns a structured field ("" when absent).
func (e *Error) Field(k string) string {
	if e.Fields == nil {
		return ""
	}
	return e.Fields[k]
}

// Encode appends the MsgError payload to dst. Fields are written in sorted
// key order so encoding is deterministic.
func (e *Error) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(e.Code))
	dst = appendString(dst, e.Msg)
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = appendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, e.Fields[k])
	}
	return dst
}

// DecodeError parses a MsgError payload.
func DecodeError(b []byte) (*Error, error) {
	r := payloadReader{b: b}
	e := &Error{Code: ErrCode(r.uvarint()), Msg: r.str()}
	n := r.count("error field")
	if r.err == nil && n > 0 {
		e.Fields = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := r.str()
			v := r.str()
			if r.err == nil {
				e.Fields[k] = v
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
