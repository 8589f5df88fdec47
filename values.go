// Public value, row and schema layer: type aliases onto the internal tuple
// model (so rows returned by the engine, rows loaded by callers and rows
// stored in pages are one representation, with zero conversion cost) plus
// constructors that keep embedders off qpipe/internal/tuple entirely.
package qpipe

import (
	"fmt"

	"qpipe/internal/tuple"
)

// Kind enumerates the supported column types.
type Kind = tuple.Kind

// The supported column kinds. Dates are stored as days since 1970-01-01.
const (
	KindInt    = tuple.KindInt
	KindFloat  = tuple.KindFloat
	KindString = tuple.KindString
	KindDate   = tuple.KindDate
)

// Value is a single column value (a small tagged union — no boxing).
type Value = tuple.Value

// Row is one result or table row: a flat slice of values. Rows handed out
// by the engine are IMMUTABLE — they may be shared by reference with
// concurrent queries (OSP satellites, replay windows), so a caller that
// needs to modify one must Clone it first.
type Row = tuple.Tuple

// Column describes one schema column (name + kind).
type Column = tuple.Column

// Schema is an ordered list of columns.
type Schema = tuple.Schema

// IntValue constructs an integer Value.
func IntValue(v int64) Value { return tuple.I64(v) }

// FloatValue constructs a float Value.
func FloatValue(v float64) Value { return tuple.F64(v) }

// StringValue constructs a string Value.
func StringValue(v string) Value { return tuple.Str(v) }

// DateValue constructs a date Value from days since 1970-01-01.
func DateValue(days int64) Value { return tuple.Date(days) }

// ColDef is shorthand for declaring a schema column:
//
//	qpipe.NewSchema(qpipe.ColDef("id", qpipe.KindInt), ...)
func ColDef(name string, k Kind) Column { return tuple.Col(name, k) }

// NewSchema builds a schema from column definitions.
func NewSchema(cols ...Column) *Schema { return tuple.NewSchema(cols...) }

// R builds a Row from native Go values: int/int64 become KindInt, float64
// KindFloat, string KindString, and a Value passes through unchanged (use
// DateValue for dates). It panics on other types — R is a literal-building
// helper; Load and Insert validate rows against the table schema anyway.
func R(vals ...any) Row {
	row := make(Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			row[i] = tuple.I64(int64(x))
		case int64:
			row[i] = tuple.I64(x)
		case float64:
			row[i] = tuple.F64(x)
		case string:
			row[i] = tuple.Str(x)
		case Value:
			row[i] = x
		default:
			panic(fmt.Sprintf("qpipe.R: unsupported value type %T at position %d", v, i))
		}
	}
	return row
}
