// Package lower is the engine's one front end: it resolves names against a
// Catalog and lowers both spellings of a query — the fluent builder and a
// parsed SQL statement — onto one positional plan. SQL is lowered onto the
// builder, so the two spellings produce one plan and one Signature(), and OSP
// shares work between them (§4.2, §4.3). It knows no engine and no storage;
// the facade (package qpipe) runs the plans and re-exports the typed errors.
package lower

import (
	"fmt"
	"strings"

	"qpipe/internal/plan"
	"qpipe/internal/stats"
	"qpipe/internal/tuple"
)

// Catalog is what the front end asks about stored tables: access-path
// selection's questions (plan.Catalog), each table's schema, and its
// statistics, which order joins and annotate EXPLAIN.
type Catalog interface {
	plan.Catalog
	// Schema returns the table's schema, or an *UnknownTableError.
	Schema(table string) (*tuple.Schema, error)
	// Stats returns the table's statistics snapshot; nil when it has none.
	Stats(table string) *stats.TableStats
}

// UnknownTableError reports a table the catalog does not know.
type UnknownTableError struct {
	Table string
}

// Error implements error.
func (e *UnknownTableError) Error() string {
	return fmt.Sprintf("qpipe: unknown table %q", e.Table)
}

// UnknownColumnError reports a column name its input schema does not have.
type UnknownColumnError struct {
	Column string
	Schema string // rendering of the schema the name was resolved against
}

// Error implements error.
func (e *UnknownColumnError) Error() string {
	return fmt.Sprintf("qpipe: unknown column %q (input schema %s)", e.Column, e.Schema)
}

// TypeMismatchError reports an expression combining incompatible kinds.
type TypeMismatchError struct {
	Expr        string // rendering of the offending (sub)expression
	Left, Right tuple.Kind
}

// Error implements error.
func (e *TypeMismatchError) Error() string {
	return fmt.Sprintf("qpipe: type mismatch in %s: %s vs %s", e.Expr, e.Left, e.Right)
}

// DuplicateColumnError reports two output columns with one name.
type DuplicateColumnError struct {
	Column string
}

// Error implements error.
func (e *DuplicateColumnError) Error() string {
	return fmt.Sprintf("qpipe: duplicate output column %q", e.Column)
}

// AmbiguousColumnError reports a SQL column reference the builder, which
// resolves names leftmost-first over the joined schema, cannot tell apart.
type AmbiguousColumnError struct {
	Column string
	// Tables are the FROM tables (or aliases) that own the column.
	Tables []string
}

// Error implements error.
func (e *AmbiguousColumnError) Error() string {
	return fmt.Sprintf("qpipe: ambiguous column %q (in tables %s) — rename the columns apart",
		e.Column, strings.Join(e.Tables, ", "))
}

// StatementError reports a SQL statement of an unsupported shape or handed to
// the wrong entry point.
type StatementError struct {
	// Stmt names the statement kind ("CREATE TABLE", "SELECT", ...).
	Stmt   string
	Reason string
}

// Error implements error.
func (e *StatementError) Error() string {
	return fmt.Sprintf("qpipe: %s: %s", e.Stmt, e.Reason)
}

// NoIndexError reports a ScanIndex over a column with no built index.
type NoIndexError struct {
	Table, Column string
}

// Error implements error.
func (e *NoIndexError) Error() string {
	return fmt.Sprintf("qpipe: no index on %s.%s (CreateIndex first)", e.Table, e.Column)
}
