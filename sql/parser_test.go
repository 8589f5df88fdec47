package sql

import (
	"errors"
	"strings"
	"testing"
)

// roundTrips are inputs whose canonical rendering is given explicitly (or
// "" when the input is already canonical). Each must also survive
// parse→String→parse→String unchanged.
var roundTrips = []struct {
	in    string
	canon string // "" = same as in
}{
	{"SELECT * FROM t", ""},
	{"SELECT a, b AS x FROM t", ""},
	{"SELECT a FROM t WHERE a = 1", ""},
	{"select a from t where a=1", "SELECT a FROM t WHERE a = 1"},
	{"SELECT a FROM t WHERE a <> 2 AND b < 3 OR c >= 4", ""},
	{"SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3", ""},
	{"SELECT a FROM t WHERE NOT (a = 1)", ""},
	{"SELECT a FROM t WHERE a != 1", "SELECT a FROM t WHERE a <> 1"},
	{"SELECT a FROM t WHERE a IN (1, 2, 3)", ""},
	{"SELECT a FROM t WHERE a NOT IN ('x', 'y')", ""},
	{"SELECT a FROM t WHERE a BETWEEN 1 AND 10", ""},
	{"SELECT a FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1995-01-01'", ""},
	{"SELECT (a + b) * 2 AS s FROM t", "SELECT ((a + b) * 2) AS s FROM t"},
	{"SELECT -a FROM t", "SELECT (0 - a) FROM t"},
	{"SELECT a FROM t WHERE x = -1.5", ""},
	{"SELECT a FROM t WHERE s = 'it''s'", ""},
	{"SELECT count(*) FROM t", ""},
	{"SELECT COUNT(*) AS n, sum(a) FROM t", "SELECT count(*) AS n, sum(a) FROM t"},
	{"SELECT g, avg(v) FROM t GROUP BY g", ""},
	{"SELECT g, min(v), max(v) FROM t GROUP BY g ORDER BY g LIMIT 5", ""},
	{"SELECT a FROM t ORDER BY a DESC, b DESC", ""},
	{"SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t ORDER BY a"},
	{"SELECT t.a, u.b FROM t JOIN u ON t.id = u.id", ""},
	{"SELECT x FROM t AS a JOIN u b ON a.id = b.id", "SELECT x FROM t AS a JOIN u AS b ON a.id = b.id"},
	{"SELECT x FROM t INNER JOIN u ON t.id = u.id", "SELECT x FROM t JOIN u ON t.id = u.id"},
	{"SELECT x FROM a, b WHERE a.id = b.id", ""},
	{"SELECT x FROM a, b, c WHERE a.id = b.id AND b.k = c.k", ""},
	{"EXPLAIN SELECT a FROM t WHERE a > 1", ""},
	{"CREATE TABLE t (id INT, name TEXT, v FLOAT, d DATE)", ""},
	{"create table t (a integer, b double, c varchar(10), d string)",
		"CREATE TABLE t (a INT, b FLOAT, c TEXT, d TEXT)"},
	{"CREATE INDEX ON t (a)", ""},
	{"CREATE CLUSTERED INDEX ON t (a)", ""},
	{"INSERT INTO t VALUES (1, 'x', 2.5)", ""},
	{"INSERT INTO t (b, a) VALUES (1, 2), (3, 4)", ""},
	{"INSERT INTO t VALUES (-3, DATE '2001-09-09')", ""},
	{"UPDATE t SET a = 1", ""},
	{"UPDATE t SET a = 1, b = b + 1 WHERE id = 3", "UPDATE t SET a = 1, b = (b + 1) WHERE id = 3"},
	{"update t set name = 'x' where id in (1, 2)", "UPDATE t SET name = 'x' WHERE id IN (1, 2)"},
	{"DELETE FROM t", ""},
	{"DELETE FROM t WHERE a > 5 AND b = 'x'", ""},
	{"BEGIN", ""},
	{"BEGIN TRANSACTION", "BEGIN"},
	{"begin work", "BEGIN"},
	{"COMMIT", ""},
	{"COMMIT WORK", "COMMIT"},
	{"ROLLBACK", ""},
	{"rollback work", "ROLLBACK"},
	{"SET parallelism = 8", ""},
	{"set osp = off", "SET osp = off"},
	{"SET statement_timeout = '500ms'", ""},
	{"SET x = 'it''s'", ""},
	{"SELECT a -- trailing comment\nFROM t /* block */ WHERE a = 1", "SELECT a FROM t WHERE a = 1"},
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range roundTrips {
		stmt, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.canon
		if want == "" {
			want = tc.in
		}
		got := stmt.String()
		if got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
			continue
		}
		again, err := Parse(got)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", got, err)
			continue
		}
		if again.String() != got {
			t.Errorf("round-trip unstable: %q -> %q", got, again.String())
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a INT);   -- schema
		INSERT INTO t VALUES (1);;
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
	if _, ok := stmts[0].(*CreateTable); !ok {
		t.Errorf("stmts[0] = %T, want *CreateTable", stmts[0])
	}
	if _, ok := stmts[2].(*Select); !ok {
		t.Errorf("stmts[2] = %T, want *Select", stmts[2])
	}
}

// TestParseErrors checks messages and, crucially, positions: the acceptance
// bar is parse errors reported with line:column.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		in         string
		wantPos    Position
		wantSubstr string
	}{
		{"SELECT", Position{1, 7}, "expected an expression"},
		{"SELECT a", Position{1, 9}, "expected FROM"},
		{"SELECT a FROM", Position{1, 14}, "table name"},
		{"SELECT a FROM t WHERE", Position{1, 22}, "expected an expression"},
		{"SELECT a FROM t WHERE a", Position{1, 24}, "comparison operator"},
		{"SELECT a FROM t\nWHERE a ==", Position{2, 10}, "expected an expression"},
		{"SELECT a FROM t WHERE a = 'x", Position{1, 27}, "unterminated string"},
		{"SELECT a FROM t LIMIT x", Position{1, 23}, "LIMIT expects"},
		{"SELECT a FROM t ORDER BY a DESC, b ASC", Position{2, 0}, "mixed ORDER BY"},
		{"SELECT DISTINCT a FROM t", Position{1, 8}, "DISTINCT is not supported"},
		{"SELECT a FROM t GROUP BY g HAVING n > 1", Position{1, 28}, "HAVING is not supported"},
		{"SELECT nope(a) FROM t", Position{1, 8}, "unknown function"},
		{"SELECT a FROM t WHERE sum(a) > 1", Position{1, 23}, "only allowed in the SELECT list"},
		{"SELECT sum(*) FROM t", Position{1, 8}, "only COUNT(*)"},
		{"CREATE TABLE t (a BLOB)", Position{1, 19}, "unknown column type"},
		{"CREATE TABLE select (a INT)", Position{1, 14}, "reserved keyword"},
		{"INSERT INTO t VALUES (a)", Position{1, 23}, "expected a literal"},
		{"INSERT INTO t VALUES (DATE '99')", Position{1, 28}, "bad date"},
		{"SELECT a FROM t #", Position{1, 17}, "unexpected character"},
		{"UPDATE t", Position{1, 9}, "expected SET"},
		{"UPDATE t SET", Position{1, 13}, "column name"},
		{"UPDATE t SET a", Position{1, 15}, "expected '='"},
		{"DELETE t", Position{1, 8}, "expected FROM"},
		{"DELETE FROM t WHERE", Position{1, 20}, "expected an expression"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error", tc.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): error %T is not *ParseError", tc.in, err)
			continue
		}
		if !strings.Contains(pe.Msg, tc.wantSubstr) {
			t.Errorf("Parse(%q): message %q does not contain %q", tc.in, pe.Msg, tc.wantSubstr)
		}
		if tc.wantPos.Line > 0 && tc.wantPos.Col > 0 && pe.Pos != tc.wantPos {
			t.Errorf("Parse(%q): position %v, want %v", tc.in, pe.Pos, tc.wantPos)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("Parse(%q): rendering %q lacks a line:col position", tc.in, err.Error())
		}
	}
}

func TestDateLiteral(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE d = DATE '1970-01-02'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.(*Select).Where.(*Compare)
	d, ok := cmp.R.(*DateLit)
	if !ok {
		t.Fatalf("RHS is %T, want *DateLit", cmp.R)
	}
	if d.Days != 1 {
		t.Errorf("Days = %d, want 1", d.Days)
	}
}

func TestLimitAndAliases(t *testing.T) {
	stmt, err := Parse("SELECT a col1, b FROM t u LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if sel.Items[0].Alias != "col1" {
		t.Errorf("bare alias: got %q, want col1", sel.Items[0].Alias)
	}
	if sel.From.Alias != "u" {
		t.Errorf("table alias: got %q, want u", sel.From.Alias)
	}
	if sel.Limit != 7 {
		t.Errorf("limit = %d, want 7", sel.Limit)
	}
}
