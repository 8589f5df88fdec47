// Marshalling the typed error family across the wire. The server renders a
// query's terminal error into a wire.Error (stable code + structured string
// fields); the client reconstructs the concrete exported type, so a remote
// caller's errors.As / errors.Is branches behave exactly as they do against
// an embedded DB:
//
//	_, err := conn.Query(ctx, sql)
//	var ov *qpipe.OverloadedError
//	if errors.As(err, &ov) { backoff(ov.QueueDepth) }
//
// Every exported error type round-trips (TestWireErrorRoundTrips holds the
// mapping to that); errors outside the family cross as CodeUnknown with
// their rendered message intact.
package qpipe

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qpipe/internal/plan"
	"qpipe/internal/tuple"
	"qpipe/sql"
	"qpipe/wire"
)

// MarshalWireError renders err as a wire.Error for a MsgError frame,
// mapping each of the package's exported error types to its ErrCode and
// flattening the type's data into string fields. Unrecognized errors map to
// CodeUnknown with the rendered message only. A nil err returns nil.
func MarshalWireError(err error) *wire.Error {
	if err == nil {
		return nil
	}
	we := &wire.Error{Code: wire.CodeUnknown, Msg: err.Error(), Fields: map[string]string{}}
	set := func(code wire.ErrCode, kv ...string) {
		we.Code = code
		for i := 0; i+1 < len(kv); i += 2 {
			we.Fields[kv[i]] = kv[i+1]
		}
	}
	var (
		ov   *OverloadedError
		dl   *DeadlineError
		pa   *PanicError
		pe   *sql.ParseError
		ut   *UnknownTableError
		ucol *UnknownColumnError
		tm   *TypeMismatchError
		dup  *DuplicateColumnError
		amb  *AmbiguousColumnError
		st   *StatementError
		op   *OptionError
		cr   *CommitRejectedError
		ts   *TxStateError
		tc   *TxConflictError
		be   *BatchError
		wp   *wire.ProtocolError
		wE   *wire.Error
	)
	switch {
	case errors.As(err, &wE):
		return wE // already in wire form: pass through unchanged
	case errors.As(err, &wp):
		set(wire.CodeProtocol, "reason", wp.Reason)
	case errors.As(err, &be):
		// Checked before the leaf types: a BatchError unwraps to its causes,
		// so errors.As on a nested type would match first and lose the
		// batch structure. Nest the submit failure (and any teardown
		// errors) as encoded wire.Errors inside fields — field values are
		// length-prefixed bytes on the wire, so binary payloads are safe.
		set(wire.CodeBatch, "index", strconv.Itoa(be.Index))
		if be.Submit != nil {
			we.Fields["submit"] = string(MarshalWireError(be.Submit).Encode(nil))
		}
		we.Fields["teardowns"] = strconv.Itoa(len(be.Teardown))
		for i, te := range be.Teardown {
			we.Fields["teardown"+strconv.Itoa(i)] = string(MarshalWireError(te).Encode(nil))
		}
	case errors.Is(err, ErrClosed):
		set(wire.CodeClosed)
	case errors.As(err, &ov):
		set(wire.CodeOverloaded,
			"max_concurrent", strconv.Itoa(ov.MaxConcurrent),
			"queue_depth", strconv.Itoa(ov.QueueDepth))
	case errors.As(err, &dl):
		set(wire.CodeDeadline,
			"timeout", dl.Timeout.String(),
			"deadline", dl.Deadline.Format(time.RFC3339Nano))
	case errors.As(err, &pa):
		set(wire.CodePanic, "op", string(pa.Op), "value", fmt.Sprint(pa.Value))
	case errors.As(err, &pe):
		set(wire.CodeParse,
			"line", strconv.Itoa(pe.Pos.Line),
			"col", strconv.Itoa(pe.Pos.Col),
			"msg", pe.Msg)
	case errors.As(err, &ut):
		set(wire.CodeUnknownTable, "table", ut.Table)
	case errors.As(err, &ucol):
		set(wire.CodeUnknownColumn, "column", ucol.Column, "schema", ucol.Schema)
	case errors.As(err, &tm):
		set(wire.CodeTypeMismatch,
			"expr", tm.Expr, "left", tm.Left.String(), "right", tm.Right.String())
	case errors.As(err, &dup):
		set(wire.CodeDuplicateColumn, "column", dup.Column)
	case errors.As(err, &amb):
		set(wire.CodeAmbiguousColumn,
			"column", amb.Column, "tables", strings.Join(amb.Tables, "\x1f"))
	case errors.As(err, &st):
		set(wire.CodeStatement, "stmt", st.Stmt, "reason", st.Reason)
	case errors.As(err, &op):
		set(wire.CodeOption, "option", op.Option, "reason", op.Reason)
	case errors.As(err, &ts):
		set(wire.CodeTxState, "stmt", ts.Stmt, "open", strconv.FormatBool(ts.Open))
	case errors.As(err, &tc):
		set(wire.CodeTxConflict, "table", tc.Table)
	case errors.As(err, &cr):
		// No code of its own: a remote caller sees a *StatementError naming
		// the COMMIT that was refused.
		set(wire.CodeStatement, "stmt", "COMMIT", "reason", cr.Error())
	}
	return we
}

// UnmarshalWireError reconstructs the concrete exported error type from a
// wire.Error received in a MsgError frame — the inverse of
// MarshalWireError. Codes with missing or corrupt fields degrade to the
// zero-valued typed error (the message is the field data's backup rendering
// on the wire.Error itself, which unknown codes return verbatim). A nil
// input returns nil.
func UnmarshalWireError(we *wire.Error) error {
	if we == nil {
		return nil
	}
	atoi := func(k string) int { n, _ := strconv.Atoi(we.Field(k)); return n }
	switch we.Code {
	case wire.CodeProtocol:
		return &wire.ProtocolError{Reason: we.Field("reason")}
	case wire.CodeClosed:
		return ErrClosed
	case wire.CodeOverloaded:
		return &OverloadedError{
			MaxConcurrent: atoi("max_concurrent"),
			QueueDepth:    atoi("queue_depth"),
		}
	case wire.CodeDeadline:
		d, _ := time.ParseDuration(we.Field("timeout"))
		at, _ := time.Parse(time.RFC3339Nano, we.Field("deadline"))
		return &DeadlineError{Timeout: d, Deadline: at}
	case wire.CodePanic:
		return &PanicError{Op: plan.OpType(we.Field("op")), Value: we.Field("value")}
	case wire.CodeParse:
		return &sql.ParseError{
			Pos: sql.Position{Line: atoi("line"), Col: atoi("col")},
			Msg: we.Field("msg"),
		}
	case wire.CodeUnknownTable:
		return &UnknownTableError{Table: we.Field("table")}
	case wire.CodeUnknownColumn:
		return &UnknownColumnError{Column: we.Field("column"), Schema: we.Field("schema")}
	case wire.CodeTypeMismatch:
		return &TypeMismatchError{
			Expr:  we.Field("expr"),
			Left:  kindFromString(we.Field("left")),
			Right: kindFromString(we.Field("right")),
		}
	case wire.CodeDuplicateColumn:
		return &DuplicateColumnError{Column: we.Field("column")}
	case wire.CodeAmbiguousColumn:
		e := &AmbiguousColumnError{Column: we.Field("column")}
		if ts := we.Field("tables"); ts != "" {
			e.Tables = strings.Split(ts, "\x1f")
		}
		return e
	case wire.CodeStatement:
		return &StatementError{Stmt: we.Field("stmt"), Reason: we.Field("reason")}
	case wire.CodeOption:
		return &OptionError{Option: we.Field("option"), Reason: we.Field("reason")}
	case wire.CodeTxState:
		return &TxStateError{Stmt: we.Field("stmt"), Open: we.Field("open") == "true"}
	case wire.CodeTxConflict:
		return &TxConflictError{Table: we.Field("table")}
	case wire.CodeBatch:
		e := &BatchError{Index: atoi("index")}
		if s := we.Field("submit"); s != "" {
			if nested, err := wire.DecodeError([]byte(s)); err == nil {
				e.Submit = UnmarshalWireError(nested)
			}
		}
		for i := 0; i < atoi("teardowns"); i++ {
			if s := we.Field("teardown" + strconv.Itoa(i)); s != "" {
				if nested, err := wire.DecodeError([]byte(s)); err == nil {
					e.Teardown = append(e.Teardown, UnmarshalWireError(nested))
				}
			}
		}
		return e
	default:
		// CodeUnknown or a code from a newer peer: surface the wire.Error
		// itself — it renders the original message and keeps its fields
		// inspectable.
		return we
	}
}

// kindFromString inverts Kind.String for the TypeMismatchError fields.
func kindFromString(s string) Kind {
	switch s {
	case "int":
		return tuple.KindInt
	case "float":
		return tuple.KindFloat
	case "string":
		return tuple.KindString
	case "date":
		return tuple.KindDate
	default:
		return tuple.KindInvalid
	}
}
