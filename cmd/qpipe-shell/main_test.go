package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/internal/workload/sqlmix"
)

// embeddedShell opens a database and a shell over it, writing to out.
func embeddedShell(t *testing.T, out *bytes.Buffer) *shell {
	t.Helper()
	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{out: out}
	sh.db, sh.be = db, embedded{db: db, sess: &sh.sess}
	t.Cleanup(func() {
		sh.sess.Close()
		db.Close()
	})
	return sh
}

// shellScript is one session's worth of statements and meta commands: a
// quoted quote, a SET whose value only re-parses quoted, and a read of the
// table an open transaction has written.
const shellScript = `CREATE TABLE t (a INT, s TEXT);
INSERT INTO t VALUES (1, 'it''s'), (2, 'x');
SET statement_timeout = '500ms';
\set
BEGIN;
UPDATE t SET a = a + 10 WHERE a = 1;
SELECT a FROM t;
COMMIT;
SELECT a, s FROM t ORDER BY a;
EXPLAIN SELECT a FROM t WHERE a > 1;
`

// TestShellsAgree runs one script through an embedded shell and through a
// -connect shell against a server on loopback: a statement means the same
// on either backend, so the two outputs are identical.
func TestShellsAgree(t *testing.T) {
	var local bytes.Buffer
	embeddedShell(t, &local).repl(strings.NewReader(shellScript))

	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := qpipe.NewServer(db, qpipe.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := client.Connect(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wire bytes.Buffer
	(&shell{out: &wire, be: remote{conn}}).repl(strings.NewReader(shellScript))

	if local.String() != wire.String() {
		t.Fatalf("embedded and remote shells disagree:\n--- embedded\n%s--- remote\n%s", local.String(), wire.String())
	}
	for _, want := range []string{
		"2 | x\n11 | it's\n(2 rows)",
		"parallelism=default batch_size=default osp=on statement_timeout=500ms\n",
		`error: qpipe: cannot read table "t" inside the transaction`,
		"TableScan t",
	} {
		if !strings.Contains(local.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, local.String())
		}
	}
	if n := strings.Count(local.String(), "error:"); n != 1 {
		t.Errorf("%d errors, want only the in-transaction read's:\n%s", n, local.String())
	}
}

// TestMixInsideTransaction: \mix runs under the shell's session, so inside
// its open transaction a mix query of the written table is refused with a
// *TxConflictError instead of waiting forever on the session's own lock.
func TestMixInsideTransaction(t *testing.T) {
	var out bytes.Buffer
	sh := embeddedShell(t, &out)
	if err := sqlmix.Populate(sh.db, 2_000, 100); err != nil {
		t.Fatal(err)
	}
	if !sh.runScript("BEGIN; DELETE FROM orders WHERE oid = 1;") {
		t.Fatal(out.String())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sh.meta(`\mix`)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("\\mix inside a transaction still running after 1s")
	}
	if want := `error: qpipe: cannot read table "orders" inside the transaction`; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}

func TestStatementComplete(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"SELECT 1 FROM t;", true},
		{"SELECT 1 FROM t", false},
		{"SELECT 1 FROM t; -- done\n", true},
		{"SELECT 1 FROM t; /* done */", true},
		{"SELECT 1 FROM t; /* don't */", true}, // apostrophe inside comment
		{"SELECT 1 FROM t; -- don't\n", true},  // apostrophe inside line comment
		{"SELECT ';' FROM t", false},           // ';' inside a string
		{"SELECT ';' FROM t;", true},           //
		{"SELECT 'it''s' FROM t;", true},       // escaped quote
		{"SELECT 1 /* multi\nline */ FROM t;", true},
		{"SELECT 1 FROM t /* open", false},      // unterminated block comment
		{"SELECT 'open", false},                 // unterminated string
		{"INSERT INTO t VALUES (1);\n\n", true}, // trailing whitespace
	}
	for _, tc := range cases {
		if got := statementComplete(tc.in); got != tc.want {
			t.Errorf("statementComplete(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
