// AST node types. Every node renders back to canonical SQL via String();
// parsing a rendering yields a structurally identical tree (the FuzzParse
// round-trip property), so String doubles as a normalizer.
package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Statement is one parsed SQL statement.
type Statement interface {
	fmt.Stringer
	isStatement()
}

// ---- Expressions -------------------------------------------------------------

// Expr is a scalar expression (column reference, literal, arithmetic, or an
// aggregate call inside a SELECT list).
type Expr interface {
	fmt.Stringer
	isExpr()
}

// ColumnRef references a column, optionally qualified by a table name or
// alias ("t.col"). Pos locates the reference for error reporting.
type ColumnRef struct {
	Table string // "" = unqualified
	Name  string
	Pos   Position
}

func (*ColumnRef) isExpr() {}

// String implements Expr.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

func (*IntLit) isExpr() {}

// String implements Expr.
func (l *IntLit) String() string { return strconv.FormatInt(l.V, 10) }

// FloatLit is a floating-point literal.
type FloatLit struct{ V float64 }

func (*FloatLit) isExpr() {}

// String implements Expr. The rendering always re-parses as a float.
func (l *FloatLit) String() string {
	s := strconv.FormatFloat(l.V, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// StringLit is a string literal.
type StringLit struct{ V string }

func (*StringLit) isExpr() {}

// String implements Expr, re-quoting embedded quotes.
func (l *StringLit) String() string {
	return "'" + strings.ReplaceAll(l.V, "'", "''") + "'"
}

// DateLit is a DATE 'YYYY-MM-DD' literal, stored as days since 1970-01-01
// (qpipe's date representation).
type DateLit struct{ Days int64 }

func (*DateLit) isExpr() {}

// String implements Expr.
func (l *DateLit) String() string {
	return "DATE '" + time.Unix(l.Days*86400, 0).UTC().Format("2006-01-02") + "'"
}

// BinaryExpr is arithmetic: Op is one of '+', '-', '*', '/'.
type BinaryExpr struct {
	Op   byte
	L, R Expr
}

func (*BinaryExpr) isExpr() {}

// String implements Expr. Nested arithmetic is always parenthesized, so the
// rendering carries no precedence ambiguity.
func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + string(b.Op) + " " + b.R.String() + ")"
}

// AggCall is an aggregate function call: COUNT(*) (Star), or
// COUNT/SUM/MIN/MAX/AVG over an argument expression. Func is lower-cased.
type AggCall struct {
	Func string
	Star bool // COUNT(*)
	Arg  Expr // nil when Star
	Pos  Position
}

func (*AggCall) isExpr() {}

// String implements Expr.
func (a *AggCall) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + a.Arg.String() + ")"
}

// ---- Predicates --------------------------------------------------------------

// Pred is a boolean predicate.
type Pred interface {
	fmt.Stringer
	isPred()
}

// Compare is a binary comparison; Op is one of = <> < <= > >=.
type Compare struct {
	Op   string
	L, R Expr
}

func (*Compare) isPred() {}

// String implements Pred.
func (c *Compare) String() string { return c.L.String() + " " + c.Op + " " + c.R.String() }

// And is an n-ary conjunction (flattened by the parser).
type And struct{ Ps []Pred }

func (*And) isPred() {}

// String implements Pred. OR operands are parenthesized to preserve
// precedence on re-parse.
func (a *And) String() string {
	parts := make([]string, len(a.Ps))
	for i, p := range a.Ps {
		if _, isOr := p.(*Or); isOr {
			parts[i] = "(" + p.String() + ")"
		} else {
			parts[i] = p.String()
		}
	}
	return strings.Join(parts, " AND ")
}

// Or is an n-ary disjunction (flattened by the parser).
type Or struct{ Ps []Pred }

func (*Or) isPred() {}

// String implements Pred.
func (o *Or) String() string {
	parts := make([]string, len(o.Ps))
	for i, p := range o.Ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " OR ")
}

// Not negates a predicate.
type Not struct{ P Pred }

func (*Not) isPred() {}

// String implements Pred. The operand is always parenthesized.
func (n *Not) String() string { return "NOT (" + n.P.String() + ")" }

// InPred is "<expr> [NOT] IN (v, ...)".
type InPred struct {
	E    Expr
	Vals []Expr
	Neg  bool
}

func (*InPred) isPred() {}

// String implements Pred.
func (p *InPred) String() string {
	parts := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		parts[i] = v.String()
	}
	op := " IN ("
	if p.Neg {
		op = " NOT IN ("
	}
	return p.E.String() + op + strings.Join(parts, ", ") + ")"
}

// BetweenPred is "<expr> [NOT] BETWEEN lo AND hi" (inclusive bounds).
type BetweenPred struct {
	E      Expr
	Lo, Hi Expr
	Neg    bool
}

func (*BetweenPred) isPred() {}

// String implements Pred.
func (p *BetweenPred) String() string {
	op := " BETWEEN "
	if p.Neg {
		op = " NOT BETWEEN "
	}
	return p.E.String() + op + p.Lo.String() + " AND " + p.Hi.String()
}

// ---- SELECT ------------------------------------------------------------------

// SelectItem is one output column of a SELECT list: '*', or an expression
// with an optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr   // nil when Star
	Alias string // "" = none
}

// String renders the item.
func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// TableRef names a FROM table with an optional alias.
type TableRef struct {
	Table string
	Alias string // "" = none (the table name itself qualifies columns)
	Pos   Position
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Table + " AS " + t.Alias
	}
	return t.Table
}

// JoinClause adds one table to the FROM list: either "JOIN t ON pred"
// (On != nil) or comma syntax "FROM a, b" (On == nil — join keys are
// recovered from WHERE equality conjuncts by the planner).
type JoinClause struct {
	Ref TableRef
	On  Pred // nil for comma syntax
}

// OrderKey is one ORDER BY column with its direction.
type OrderKey struct {
	Col  ColumnRef
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Pred // nil = none
	GroupBy []ColumnRef
	OrderBy []OrderKey
	Limit   int64 // -1 = none
}

func (*Select) isStatement() {}

// String implements Statement.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From.String())
	for _, j := range s.Joins {
		if j.On != nil {
			b.WriteString(" JOIN ")
			b.WriteString(j.Ref.String())
			b.WriteString(" ON ")
			b.WriteString(j.On.String())
		} else {
			b.WriteString(", ")
			b.WriteString(j.Ref.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Col.String())
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Explain wraps a SELECT: the planner compiles it and returns the lowered
// physical plan as text instead of executing.
type Explain struct {
	Stmt *Select
}

func (*Explain) isStatement() {}

// String implements Statement.
func (e *Explain) String() string { return "EXPLAIN " + e.Stmt.String() }

// ---- DDL / DML ---------------------------------------------------------------

// ColumnDef is one column of a CREATE TABLE: a name and a type keyword
// (normalized: INT, FLOAT, TEXT or DATE).
type ColumnDef struct {
	Name string
	Type string
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

func (*CreateTable) isStatement() {}

// String implements Statement.
func (c *CreateTable) String() string {
	parts := make([]string, len(c.Cols))
	for i, col := range c.Cols {
		parts[i] = col.Name + " " + col.Type
	}
	return "CREATE TABLE " + c.Name + " (" + strings.Join(parts, ", ") + ")"
}

// CreateIndex is a CREATE [CLUSTERED] INDEX ON t (col) statement.
type CreateIndex struct {
	Table     string
	Column    string
	Clustered bool
}

func (*CreateIndex) isStatement() {}

// String implements Statement.
func (c *CreateIndex) String() string {
	kind := "INDEX"
	if c.Clustered {
		kind = "CLUSTERED INDEX"
	}
	return "CREATE " + kind + " ON " + c.Table + " (" + c.Column + ")"
}

// Insert is an INSERT INTO ... VALUES statement. Columns optionally names
// a subset/reordering of the table's columns; Rows hold literal expressions
// only (IntLit, FloatLit, StringLit, DateLit).
type Insert struct {
	Table   string
	Columns []string // nil = schema order
	Rows    [][]Expr
}

func (*Insert) isStatement() {}

// String implements Statement.
func (ins *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(ins.Table)
	if len(ins.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(ins.Columns, ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Analyze is "ANALYZE [table]": rebuild table statistics (row counts,
// per-column min/max and distinct-value sketches) from a full scan. An
// empty Table means every table.
type Analyze struct {
	Table string
}

func (*Analyze) isStatement() {}

// String implements Statement.
func (a *Analyze) String() string {
	if a.Table == "" {
		return "ANALYZE"
	}
	return "ANALYZE " + a.Table
}

// Set is a session statement "SET name = value". The engine has no session
// state; clients (the qpipe-shell REPL, the SQL workload runner) map it to
// per-query options via qpipe.Session.
type Set struct {
	Name  string
	Value string // raw: an identifier, keyword or number rendering, or a string's contents
}

func (*Set) isStatement() {}

// String implements Statement. A value that would not lex back to itself as
// one word or number (500ms, a space, a quote) renders as a string literal,
// so the rendering re-parses to the same statement.
func (s *Set) String() string {
	v := s.Value
	toks, err := lex(v)
	if err != nil || len(toks) != 2 || toks[0].Kind == tokSymbol || toks[0].Text != v {
		v = (&StringLit{V: v}).String()
	}
	return "SET " + s.Name + " = " + v
}

// Assignment is one "col = expr" clause of an UPDATE's SET list.
type Assignment struct {
	Column string
	Value  Expr
}

func (a Assignment) String() string { return a.Column + " = " + a.Value.String() }

// Update is an UPDATE ... SET ... [WHERE ...] statement. Assignments may
// reference the table's columns (all reads see the pre-update row). A nil
// Where updates every row.
type Update struct {
	Table string
	Set   []Assignment
	Where Pred
}

func (*Update) isStatement() {}

// String implements Statement.
func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(u.Table)
	b.WriteString(" SET ")
	for i, a := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	if u.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(u.Where.String())
	}
	return b.String()
}

// Delete is a DELETE FROM ... [WHERE ...] statement. A nil Where deletes
// every row.
type Delete struct {
	Table string
	Where Pred
}

func (*Delete) isStatement() {}

// String implements Statement.
func (d *Delete) String() string {
	s := "DELETE FROM " + d.Table
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// Begin starts an explicit transaction (BEGIN; BEGIN TRANSACTION and BEGIN
// WORK parse to the same statement).
type Begin struct{}

func (*Begin) isStatement() {}

// String implements Statement.
func (*Begin) String() string { return "BEGIN" }

// Commit commits the session's open transaction.
type Commit struct{}

func (*Commit) isStatement() {}

// String implements Statement.
func (*Commit) String() string { return "COMMIT" }

// Rollback aborts the session's open transaction.
type Rollback struct{}

func (*Rollback) isStatement() {}

// String implements Statement.
func (*Rollback) String() string { return "ROLLBACK" }
