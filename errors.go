// Typed errors returned by the public API. Builder and option mistakes each
// surface as a distinct error type so embedders can branch with errors.As
// instead of string-matching:
//
//	var uc *qpipe.UnknownColumnError
//	if errors.As(err, &uc) { ... uc.Column ... }
package qpipe

import (
	"errors"
	"fmt"

	"qpipe/internal/core"
	"qpipe/internal/lower"
	"qpipe/internal/storage/sm"
)

// OverloadedError is returned by Run/Query when the engine is at its
// Options.MaxConcurrentQueries limit and the admission queue is full: the
// query was shed without executing. Back off and retry.
type OverloadedError = core.OverloadedError

// DeadlineError is the terminal error of a query whose deadline expired
// (WithTimeout/WithDeadline, SQL SET statement_timeout, or the caller's
// context). It unwraps to context.DeadlineExceeded.
type DeadlineError = core.DeadlineError

// PanicError is the terminal error of a query whose operator panicked; the
// engine quarantined the panic (satellites rescued, µEngine still serving)
// and failed only this query.
type PanicError = core.PanicError

// ErrClosed is returned by Run/Query once DB.Close has begun: new queries
// are rejected while in-flight ones drain.
var ErrClosed = core.ErrClosed

// UnknownTableError reports a query or DDL statement against a table the
// catalog does not know.
type UnknownTableError = lower.UnknownTableError

// UnknownColumnError reports a column name that does not resolve against the
// input schema at that point of the builder chain.
type UnknownColumnError = lower.UnknownColumnError

// TypeMismatchError reports an expression combining incompatible kinds, such
// as a string compared with a number; int, float and date are compatible.
type TypeMismatchError = lower.TypeMismatchError

// DuplicateColumnError reports a projection or group-by producing two output
// columns with the same name.
type DuplicateColumnError = lower.DuplicateColumnError

// AmbiguousColumnError reports a SQL column reference the builder cannot
// resolve faithfully: a bare name owned by more than one FROM table, or a
// qualified name shadowed by an earlier table in the join order.
type AmbiguousColumnError = lower.AmbiguousColumnError

// StatementError reports a SQL statement of an unsupported shape or routed to
// the wrong entry point: a CREATE handed to Query, a SET outside a session.
type StatementError = lower.StatementError

// NoIndexError reports a ScanIndex over a column with no built index.
type NoIndexError = lower.NoIndexError

// OptionError reports an invalid per-query option value or a conflicting
// option combination (e.g. WithSharedScan with WithoutOSP).
type OptionError struct {
	Option string
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("qpipe: option %s: %s", e.Option, e.Reason)
}

// BatchError is the typed joined error RunBatch returns when submitting
// one of the batch's plans fails: the already-submitted members are
// cancelled and waited out before it is returned. Unwrap exposes the submit
// failure first, then any teardown errors, so errors.Is/As see through it.
type BatchError struct {
	// Index is the position of the plan whose submission failed.
	Index int
	// Submit is the submission failure itself.
	Submit error
	// Teardown holds non-cancellation errors observed while waiting out the
	// already-submitted members (normally empty: a cancelled member's
	// context.Canceled is expected and not recorded).
	Teardown []error
}

// Error implements error.
func (e *BatchError) Error() string {
	if len(e.Teardown) == 0 {
		return fmt.Sprintf("qpipe: batch plan %d failed to submit: %v", e.Index, e.Submit)
	}
	return fmt.Sprintf("qpipe: batch plan %d failed to submit: %v (and %d teardown errors: %v)",
		e.Index, e.Submit, len(e.Teardown), errors.Join(e.Teardown...))
}

// Unwrap exposes the joined causes to errors.Is / errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, 1+len(e.Teardown))
	if e.Submit != nil {
		out = append(out, e.Submit)
	}
	return append(out, e.Teardown...)
}

// TxStateError reports a transaction-control statement in the wrong state:
// BEGIN with a transaction already open, or COMMIT/ROLLBACK with none.
type TxStateError struct {
	// Stmt is the statement ("BEGIN", "COMMIT", "ROLLBACK").
	Stmt string
	// Open says whether a transaction was open when the statement arrived.
	Open bool
}

// Error implements error.
func (e *TxStateError) Error() string {
	if e.Open {
		return fmt.Sprintf("qpipe: %s: a transaction is already open on this session", e.Stmt)
	}
	return fmt.Sprintf("qpipe: %s: no transaction is open on this session", e.Stmt)
}

// CommitRejectedError reports a COMMIT (or autocommitted statement) refused
// before its commit point because its writes cannot be applied — typically
// an UPDATE that grows rows beyond what their heap page can hold. Nothing
// was logged and nothing changed; the transaction is over, as after
// ROLLBACK. Over the wire it arrives as a *StatementError for "COMMIT".
type CommitRejectedError = sm.CommitRejectedError

// TxConflictError reports a read that would self-deadlock: a SELECT inside
// an open transaction over a table that transaction has written. The
// transaction holds the table's exclusive lock until COMMIT/ROLLBACK, and
// the lock manager tracks no owners, so the read would wait on the session's
// own lock forever. Commit or roll back first, or read other tables.
type TxConflictError struct {
	// Table is the written table the read touches.
	Table string
}

// Error implements error.
func (e *TxConflictError) Error() string {
	return fmt.Sprintf("qpipe: cannot read table %q inside the transaction that is writing it "+
		"(commit or roll back first)", e.Table)
}
