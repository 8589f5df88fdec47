// qpipe-shell is an interactive SQL REPL over an embedded qpipe database:
// multi-line statements, \-meta commands, per-session SET mapping onto the
// per-query options, and script execution for declarative workloads.
//
//	qpipe-shell -demo                  # REPL over the tpchmix demo dataset
//	qpipe-shell -demo -f internal/workload/sqlmix/tpchmix.sql
//	qpipe-shell -c "SELECT 1 + 2 AS three FROM t"
//	qpipe-shell -connect localhost:5433  # same REPL against a qpipe-server
//
// With -connect the shell speaks the qpipe/wire protocol instead of
// embedding a database: statements execute server-side under the
// connection's session, and \stats shows the server's counters fetched
// over the wire.
//
//	qpipe> CREATE TABLE t (a INT, b TEXT);
//	qpipe> INSERT INTO t VALUES (1, 'x'), (2, 'y');
//	qpipe> SELECT a, b FROM t WHERE a > 1;
//	qpipe> EXPLAIN SELECT count(*) FROM t GROUP BY b;
//	qpipe> SET parallelism = 4;
//	qpipe> \timing
//	qpipe> \mix
//	qpipe> \q
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"qpipe"
	"qpipe/client"
	"qpipe/internal/workload/sqlmix"
	"qpipe/sql"
)

func main() {
	demo := flag.Bool("demo", false, "load the tpchmix demo dataset (orders/customers)")
	demoRows := flag.Int("rows", 60_000, "demo dataset: orders rows")
	demoCusts := flag.Int("customers", 4_000, "demo dataset: customers rows")
	script := flag.String("f", "", "execute a .sql script, then exit")
	command := flag.String("c", "", "execute one SQL statement, then exit")
	pool := flag.Int("pool", 1024, "buffer pool pages")
	timing := flag.Bool("timing", false, "start with \\timing on")
	connect := flag.String("connect", "", "connect to a qpipe-server at host:port instead of embedding a database")
	flag.Parse()

	sh := &shell{timing: *timing, out: os.Stdout}
	if *connect != "" {
		if *demo {
			fatal(fmt.Errorf("-demo is embedded-only; start qpipe-server -demo instead"))
		}
		conn, err := client.Connect(context.Background(), *connect)
		if err != nil {
			fatal(err)
		}
		defer conn.Close()
		sh.remote = conn
		switch {
		case *command != "":
			if !sh.runScript(*command) {
				os.Exit(1)
			}
		case *script != "":
			text, err := os.ReadFile(*script)
			if err != nil {
				fatal(err)
			}
			if !sh.runScript(string(text)) {
				os.Exit(1)
			}
		default:
			fmt.Fprintf(sh.out, "connected to %s\n", *connect)
			sh.repl()
		}
		return
	}

	db, err := qpipe.Open(qpipe.Options{PoolPages: *pool})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	sh.db = db
	defer sh.sess.Close() // roll back an abandoned transaction on exit
	if *demo {
		fmt.Fprintf(sh.out, "loading demo dataset: %d orders, %d customers ...\n", *demoRows, *demoCusts)
		if err := sqlmix.Populate(db, *demoRows, *demoCusts); err != nil {
			fatal(err)
		}
	}

	switch {
	case *command != "":
		if !sh.runScript(*command) {
			os.Exit(1)
		}
	case *script != "":
		text, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if !sh.runScript(string(text)) {
			os.Exit(1)
		}
	default:
		sh.repl()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qpipe-shell:", err)
	os.Exit(1)
}

// shell holds the REPL's connection state: an embedded database OR a remote
// connection (exactly one is set), the session settings SQL SET adjusts,
// and the \timing toggle.
type shell struct {
	db     *qpipe.DB    // embedded mode
	remote *client.Conn // -connect mode
	sess   qpipe.Session
	timing bool
	out    *os.File
}

// repl reads statements from stdin: lines accumulate until a terminating
// ';' (strings respected), '\'-prefixed meta commands run immediately.
func (sh *shell) repl() {
	fmt.Fprintln(sh.out, "qpipe SQL shell — \\help for help, \\q to quit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var buf strings.Builder
	for {
		prompt := "qpipe> "
		if buf.Len() > 0 {
			prompt = "  ...> "
		}
		fmt.Fprint(sh.out, prompt)
		if !scanner.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !sh.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if statementComplete(buf.String()) {
			sh.runScript(buf.String())
			buf.Reset()
		}
	}
}

// statementComplete reports whether the buffered text ends with a
// statement-terminating ';': the last significant character outside string
// literals and '--'/'/* */' comments is a semicolon (comments and
// whitespace may trail it).
func statementComplete(text string) bool {
	inStr, inBlock := false, false
	last := byte(0)
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case inStr:
			if c == '\'' {
				inStr = false
			}
		case inBlock:
			if c == '*' && i+1 < len(text) && text[i+1] == '/' {
				inBlock = false
				i++
			}
		case c == '\'':
			inStr = true
			last = c
		case c == '-' && i+1 < len(text) && text[i+1] == '-': // line comment
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(text) && text[i+1] == '*':
			inBlock = true
			i++
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			last = c
		}
	}
	return !inStr && !inBlock && last == ';'
}

// runScript parses and executes a ';'-separated script, reporting each
// statement's result. Returns false if any statement failed.
func (sh *shell) runScript(text string) bool {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return false
	}
	ok := true
	for _, stmt := range stmts {
		if err := sh.exec(stmt); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			ok = false
		}
	}
	return ok
}

// exec runs one parsed statement through the public API: SELECT/EXPLAIN via
// db.Query (with the session's options), everything else — DDL, INSERT,
// UPDATE/DELETE, BEGIN/COMMIT/ROLLBACK, SET — via db.ExecSession so the
// shell's session carries transactions exactly like a server connection.
func (sh *shell) exec(stmt sql.Statement) error {
	if sh.remote != nil {
		return sh.execRemote(stmt)
	}
	ctx := context.Background()
	start := time.Now()
	switch s := stmt.(type) {
	case *sql.Set:
		if err := sh.sess.Apply(s); err != nil {
			return err
		}
		fmt.Fprintln(sh.out, "SET —", sh.sess.String())
		return nil
	case *sql.Explain:
		res, err := sh.db.Query(ctx, s.String(), sh.sess.Options()...)
		if err != nil {
			return err
		}
		rows, err := res.All()
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintln(sh.out, r[0].S)
		}
		return nil
	case *sql.Select:
		if err := sh.sess.GuardQuery(s); err != nil {
			return err
		}
		res, err := sh.db.Query(ctx, s.String(), sh.sess.Options()...)
		if err != nil {
			return err
		}
		n, err := sh.printResult(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "(%d rows)\n", n)
		sh.reportTiming(start)
		return nil
	default:
		affected, err := sh.db.ExecSession(ctx, &sh.sess, stmt.String())
		if err != nil {
			return err
		}
		sh.reportExec(stmt, affected)
		sh.reportTiming(start)
		return nil
	}
}

// reportExec prints a mutation statement's tag the way psql does: the verb,
// plus the affected-row count where one is meaningful.
func (sh *shell) reportExec(stmt sql.Statement, affected int64) {
	switch stmt.(type) {
	case *sql.Insert:
		fmt.Fprintf(sh.out, "INSERT %d\n", affected)
	case *sql.Update:
		fmt.Fprintf(sh.out, "UPDATE %d\n", affected)
	case *sql.Delete:
		fmt.Fprintf(sh.out, "DELETE %d\n", affected)
	case *sql.Begin:
		fmt.Fprintln(sh.out, "BEGIN")
	case *sql.Commit:
		fmt.Fprintln(sh.out, "COMMIT")
	case *sql.Rollback:
		fmt.Fprintln(sh.out, "ROLLBACK")
	default:
		fmt.Fprintln(sh.out, "ok")
	}
}

// execRemote runs one parsed statement over the wire: SELECT/EXPLAIN via
// conn.Query, DDL/INSERT via conn.Exec. SET forwards to the server (its
// session owns execution) and mirrors into the local session so \set shows
// the settings without a round trip.
func (sh *shell) execRemote(stmt sql.Statement) error {
	ctx := context.Background()
	start := time.Now()
	switch s := stmt.(type) {
	case *sql.Set:
		if err := sh.sess.Apply(s); err != nil {
			return err
		}
		rows, err := sh.remote.Query(ctx, s.String())
		if err != nil {
			return err
		}
		if _, err := rows.Discard(); err != nil {
			return err
		}
		fmt.Fprintln(sh.out, "SET —", sh.sess.String())
		return nil
	case *sql.Explain:
		rows, err := sh.remote.Query(ctx, s.String())
		if err != nil {
			return err
		}
		all, err := rows.All()
		if err != nil {
			return err
		}
		for _, r := range all {
			fmt.Fprintln(sh.out, r[0].S)
		}
		return nil
	case *sql.Select:
		rows, err := sh.remote.Query(ctx, s.String())
		if err != nil {
			return err
		}
		n, err := sh.printRemote(rows)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "(%d rows)\n", n)
		sh.reportTiming(start)
		return nil
	default:
		affected, err := sh.remote.Exec(ctx, stmt.String())
		if err != nil {
			return err
		}
		sh.reportExec(stmt, affected)
		sh.reportTiming(start)
		return nil
	}
}

// printRemote streams a remote result to the terminal, same rendering as
// printResult.
func (sh *shell) printRemote(rows *client.Rows) (int64, error) {
	if s := rows.Schema(); s != nil && s.Len() > 0 {
		names := make([]string, s.Len())
		for i, c := range s.Cols {
			names[i] = c.Name
		}
		header := strings.Join(names, " | ")
		fmt.Fprintln(sh.out, header)
		fmt.Fprintln(sh.out, strings.Repeat("-", len(header)))
	}
	var n int64
	for {
		b, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		for _, row := range b {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.String()
			}
			fmt.Fprintln(sh.out, strings.Join(vals, " | "))
			n++
		}
	}
	return n, nil
}

// printResult streams a result to the terminal with a header row from the
// result schema.
func (sh *shell) printResult(res *qpipe.Result) (int64, error) {
	if s := res.Schema(); s != nil {
		names := make([]string, s.Len())
		for i, c := range s.Cols {
			names[i] = c.Name
		}
		header := strings.Join(names, " | ")
		fmt.Fprintln(sh.out, header)
		fmt.Fprintln(sh.out, strings.Repeat("-", len(header)))
	}
	var n int64
	for row := range res.Rows() {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = v.String()
		}
		fmt.Fprintln(sh.out, strings.Join(vals, " | "))
		n++
	}
	return n, res.Err()
}

func (sh *shell) reportTiming(start time.Time) {
	if sh.timing {
		fmt.Fprintf(sh.out, "Time: %s\n", time.Since(start).Round(10*time.Microsecond))
	}
}

// meta handles '\'-commands. Returns false to quit.
func (sh *shell) meta(line string) bool {
	cmd, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	switch cmd {
	case "\\q", "\\quit":
		return false
	case "\\timing":
		sh.timing = !sh.timing
		fmt.Fprintf(sh.out, "Timing is %s.\n", onOff(sh.timing))
	case "\\set":
		fmt.Fprintln(sh.out, sh.sess.String())
	case "\\d":
		if sh.remote != nil {
			fmt.Fprintln(sh.out, "\\d is not available over -connect (catalog lives server-side)")
			break
		}
		if arg == "" {
			for _, t := range sh.db.Tables() {
				fmt.Fprintln(sh.out, t)
			}
			break
		}
		schema, err := sh.db.Schema(arg)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		pages, _ := sh.db.TablePages(arg)
		fmt.Fprintf(sh.out, "%s %s (%d pages)\n", arg, schema.String(), pages)
		if ts, err := sh.db.TableStats(arg); err == nil {
			fmt.Fprintf(sh.out, "stats: %d rows\n", ts.Rows)
			for _, c := range ts.Columns {
				if c.Distinct == 0 {
					fmt.Fprintf(sh.out, "  %-12s (no data)\n", c.Column)
					continue
				}
				fmt.Fprintf(sh.out, "  %-12s min=%s max=%s distinct≈%d\n", c.Column, c.Min, c.Max, c.Distinct)
			}
		}
	case "\\i":
		if arg == "" {
			fmt.Fprintln(sh.out, "usage: \\i FILE")
			break
		}
		text, err := os.ReadFile(arg)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			break
		}
		sh.runScript(string(text))
	case "\\mix":
		if sh.remote != nil {
			fmt.Fprintln(sh.out, "\\mix is embedded-only")
			break
		}
		sh.runMix()
	case "\\stats":
		if sh.remote != nil {
			sh.remoteStats()
			break
		}
		st := sh.db.Stats()
		fmt.Fprintf(sh.out, "queries: %d  OSP shares by operator: %v\n", st.Queries, st.SharesByOp)
		fmt.Fprintf(sh.out, "governance: %d in flight, %d queued, %d shed, %d statement timeouts, %d panics quarantined\n",
			st.InFlight, st.AdmissionQueued, st.Shed, st.DeadlineTimeouts, st.Panics)
		d := sh.db.DiskStats()
		fmt.Fprintf(sh.out, "disk: %d blocks read (%d sequential), %d written\n", d.Reads, d.SeqReads, d.Writes)
		// Pages the finished queries' scans were served, and those among them no
		// earlier scan had left located in the pool: 0 is a warm scan.
		fmt.Fprintf(sh.out, "  %-28s %d\n  %-28s %d\n", "scan.pages_visited", st.PagesVisited, "scan.pages_located", st.PagesLocated)
		// What joins and aggregates handed down to their scans, by outcome.
		for why, n := range st.HandOvers {
			fmt.Fprintf(sh.out, "  %-28s %d\n", "handover."+qpipe.HandOver(why).String(), n)
		}
	case "\\help":
		fmt.Fprint(sh.out, `statements end with ';' (multi-line input is fine):
  SELECT ... / EXPLAIN SELECT ...      query (through db.Query)
  CREATE TABLE / CREATE INDEX / INSERT DDL and loading
  UPDATE ... / DELETE FROM ...         transactional mutations
  BEGIN; ...; COMMIT | ROLLBACK        multi-statement transactions
  ANALYZE [table]                      rebuild planner statistics
  SET parallelism|batch_size|osp = v   session options for later queries
  SET statement_timeout = '500ms'      per-query deadline (0 turns it off)
meta commands:
  \d [table]   list tables / show a table's schema and statistics
  \i FILE      run a .sql script
  \mix         run the embedded tpchmix query mix (needs -demo tables)
  \set         show session settings
  \stats       engine and disk counters
  \timing      toggle per-statement timing
  \q           quit
`)
	default:
		fmt.Fprintf(sh.out, "unknown command %s (try \\help)\n", cmd)
	}
	return true
}

// runMix executes the embedded tpchmix SQL mix with a few concurrent
// clients, showing the OSP sharing the mix exists to demonstrate.
func (sh *shell) runMix() {
	m, err := sqlmix.Parse(sqlmix.TPCHMix())
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if _, err := m.Compile(sh.db); err != nil {
		fmt.Fprintln(sh.out, "error:", err, "(run with -demo to load the dataset)")
		return
	}
	const clients, perClient = 6, 2
	fmt.Fprintf(sh.out, "running %d queries: %d clients x %d ...\n", clients*perClient, clients, perClient)
	res, err := m.Run(context.Background(), sh.db, clients, perClient, sh.sess.Options()...)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintf(sh.out, "%d queries, %d rows in %s — %d blocks read, %d OSP shares\n",
		res.Queries, res.Rows, res.Elapsed.Round(time.Millisecond), res.BlocksRead, res.Shares)
}

// remoteStats fetches and prints the server's counters over the wire.
func (sh *shell) remoteStats() {
	stats, err := sh.remote.Stats(context.Background())
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(sh.out, "server counters:")
	for _, name := range names {
		fmt.Fprintf(sh.out, "  %-20s %d\n", name, stats[name])
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
