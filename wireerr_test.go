package qpipe

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"qpipe/internal/plan"
	"qpipe/internal/tuple"
	"qpipe/sql"
	"qpipe/wire"
)

// TestWireErrorRoundTrips drives every exported error type through
// MarshalWireError → wire encode → wire decode → UnmarshalWireError and
// requires the exact value back. This is the satellite guarantee: a remote
// caller's errors.As branches see the same concrete types an embedded
// caller does.
func TestWireErrorRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code wire.ErrCode
	}{
		{"overloaded", &OverloadedError{MaxConcurrent: 8, QueueDepth: 16}, wire.CodeOverloaded},
		{"deadline", &DeadlineError{Timeout: 500 * time.Millisecond,
			Deadline: time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)}, wire.CodeDeadline},
		{"panic", &PanicError{Op: plan.OpType("A"), Value: "index out of range"}, wire.CodePanic},
		{"closed", ErrClosed, wire.CodeClosed},
		{"parse", &sql.ParseError{Pos: sql.Position{Line: 3, Col: 14}, Msg: "expected FROM"}, wire.CodeParse},
		{"unknown-table", &UnknownTableError{Table: "nope"}, wire.CodeUnknownTable},
		{"unknown-column", &UnknownColumnError{Column: "x", Schema: "(a int, b string)"}, wire.CodeUnknownColumn},
		{"type-mismatch", &TypeMismatchError{Expr: "a < 'x'",
			Left: tuple.KindInt, Right: tuple.KindString}, wire.CodeTypeMismatch},
		{"duplicate-column", &DuplicateColumnError{Column: "total"}, wire.CodeDuplicateColumn},
		{"ambiguous-column", &AmbiguousColumnError{Column: "id",
			Tables: []string{"orders", "customers"}}, wire.CodeAmbiguousColumn},
		{"statement", &StatementError{Stmt: "SET", Reason: "session statement"}, wire.CodeStatement},
		{"option", &OptionError{Option: "WithBatchSize", Reason: "must be >= 1"}, wire.CodeOption},
		{"batch", &BatchError{Index: 2,
			Submit:   &OverloadedError{MaxConcurrent: 4, QueueDepth: 0},
			Teardown: []error{&DeadlineError{Timeout: time.Second}}}, wire.CodeBatch},
		{"protocol", &wire.ProtocolError{Reason: "zero-length frame"}, wire.CodeProtocol},
		{"tx-state-open", &TxStateError{Stmt: "BEGIN", Open: true}, wire.CodeTxState},
		{"tx-state-none", &TxStateError{Stmt: "COMMIT"}, wire.CodeTxState},
		{"tx-conflict", &TxConflictError{Table: "t"}, wire.CodeTxConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we := MarshalWireError(tc.err)
			if we.Code != tc.code {
				t.Fatalf("code = %d, want %d", we.Code, tc.code)
			}
			if we.Msg != tc.err.Error() {
				t.Fatalf("msg = %q, want %q", we.Msg, tc.err.Error())
			}
			// Across the wire and back.
			decoded, err := wire.DecodeError(we.Encode(nil))
			if err != nil {
				t.Fatal(err)
			}
			got := UnmarshalWireError(decoded)
			if !reflect.DeepEqual(got, tc.err) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", got, tc.err)
			}
		})
	}
}

// TestWireErrorSemantics pins the behaviors the round trip must preserve
// beyond field equality: errors.Is/As matching and unwrap chains.
func TestWireErrorSemantics(t *testing.T) {
	redo := func(err error) error {
		we, derr := wire.DecodeError(MarshalWireError(err).Encode(nil))
		if derr != nil {
			t.Fatal(derr)
		}
		return UnmarshalWireError(we)
	}

	// A reconstructed DeadlineError still unwraps to context.DeadlineExceeded.
	if err := redo(&DeadlineError{Timeout: time.Second}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error lost its unwrap: %v", err)
	}
	// ErrClosed crosses as the identical sentinel.
	if err := redo(ErrClosed); !errors.Is(err, ErrClosed) {
		t.Fatalf("ErrClosed did not survive: %v", err)
	}
	// A BatchError's nested submit failure stays errors.As-reachable.
	var ov *OverloadedError
	berr := redo(&BatchError{Index: 1, Submit: &OverloadedError{MaxConcurrent: 2}})
	if !errors.As(berr, &ov) || ov.MaxConcurrent != 2 {
		t.Fatalf("nested submit error unreachable: %v", berr)
	}
	// Errors outside the family cross as CodeUnknown, message intact.
	opaque := errors.New("something engine-internal")
	got := redo(opaque)
	if got.Error() != opaque.Error() {
		t.Fatalf("opaque error message lost: %q", got.Error())
	}
	var we *wire.Error
	if !errors.As(got, &we) || we.Code != wire.CodeUnknown {
		t.Fatalf("opaque error should surface as *wire.Error CodeUnknown, got %T", got)
	}
	// Wrapped typed errors still map by their concrete type.
	wrapped := redo(wrapErr{&UnknownTableError{Table: "t"}})
	var ut *UnknownTableError
	if !errors.As(wrapped, &ut) || ut.Table != "t" {
		t.Fatalf("wrapped typed error did not map: %v", wrapped)
	}
	// Nil stays nil both ways.
	if MarshalWireError(nil) != nil || UnmarshalWireError(nil) != nil {
		t.Fatal("nil did not stay nil")
	}
}

type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapErr) Unwrap() error { return w.err }
