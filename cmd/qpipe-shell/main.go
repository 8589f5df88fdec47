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
	"maps"
	"os"
	"slices"
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
		sh.be = remote{conn}
	} else {
		db, err := qpipe.Open(qpipe.Options{PoolPages: *pool})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		sh.db, sh.be = db, embedded{db: db, sess: &sh.sess}
		defer sh.sess.Close() // roll back an abandoned transaction on exit
		if *demo {
			fmt.Fprintf(sh.out, "loading demo dataset: %d orders, %d customers ...\n", *demoRows, *demoCusts)
			if err := sqlmix.Populate(db, *demoRows, *demoCusts); err != nil {
				fatal(err)
			}
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
		if *connect != "" {
			fmt.Fprintf(sh.out, "connected to %s\n", *connect)
		}
		sh.repl(os.Stdin)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qpipe-shell:", err)
	os.Exit(1)
}

// shell holds the REPL's state: the backend statements run on, the session
// settings SQL SET adjusts (the backend's own session when embedded, a
// mirror of the server-side one when remote), and the \timing toggle.
type shell struct {
	be     backend
	db     *qpipe.DB // embedded mode only: \d, \mix and the engine's \stats
	sess   qpipe.Session
	timing bool
	out    io.Writer
}

// backend runs statement text under the shell's session: query for SELECT
// and EXPLAIN, exec for everything else.
type backend interface {
	query(ctx context.Context, text string) (rows, error)
	exec(ctx context.Context, text string) (int64, error)
}

// rows is a result stream as the printer reads it.
type rows interface {
	Schema() *qpipe.Schema
	Next() ([]qpipe.Row, error)
}

// embedded runs statements through the database's router.
type embedded struct {
	db   *qpipe.DB
	sess *qpipe.Session
}

func (e embedded) query(ctx context.Context, text string) (rows, error) {
	res, err := e.db.QuerySession(ctx, e.sess, text)
	return result{res}, err
}

func (e embedded) exec(ctx context.Context, text string) (int64, error) {
	return e.db.ExecSession(ctx, e.sess, text)
}

// result ends a Result's stream with the query's terminal error, as the
// Result's own drains do (a Discard past the end reads nothing, it waits).
type result struct{ *qpipe.Result }

func (r result) Next() ([]qpipe.Row, error) {
	b, err := r.Result.Next()
	if err == io.EOF {
		if _, werr := r.Discard(); werr != nil {
			return nil, werr
		}
	}
	return b, err
}

// remote runs statements over a connection, under its server-side session.
type remote struct{ *client.Conn }

func (r remote) query(ctx context.Context, text string) (rows, error) { return r.Query(ctx, text) }

func (r remote) exec(ctx context.Context, text string) (int64, error) { return r.Exec(ctx, text) }

// repl reads statements from in: lines accumulate until a terminating
// ';' (strings respected), '\'-prefixed meta commands run immediately.
func (sh *shell) repl(in io.Reader) {
	fmt.Fprintln(sh.out, "qpipe SQL shell — \\help for help, \\q to quit")
	scanner := bufio.NewScanner(in)
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

// exec runs one parsed statement on the backend: SELECT and EXPLAIN
// through query, everything else — DDL, mutations, BEGIN/COMMIT/ROLLBACK,
// SET — through exec, so the shell's session carries transactions and
// settings exactly like a server connection.
func (sh *shell) exec(stmt sql.Statement) error {
	ctx, start := context.Background(), time.Now()
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		rs, err := sh.be.query(ctx, stmt.String())
		if err != nil {
			return err
		}
		return sh.print(rs, stmt, start)
	}
	affected, err := sh.be.exec(ctx, stmt.String())
	if err != nil {
		return err
	}
	if set, ok := stmt.(*sql.Set); ok {
		// Accepted: mirror it for \set (embedded, the backend's session is
		// this one, and applying it again changes nothing).
		_ = sh.sess.Apply(set)
		fmt.Fprintln(sh.out, "SET —", sh.sess.String())
		return nil
	}
	sh.reportExec(stmt, affected)
	sh.reportTiming(start)
	return nil
}

// reportExec prints a mutation statement's tag the way psql does: the verb,
// plus the affected-row count where one is meaningful.
func (sh *shell) reportExec(stmt sql.Statement, affected int64) {
	verb := strings.Fields(stmt.String())[0] // INSERT, UPDATE, DELETE, BEGIN, ...
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
		fmt.Fprintf(sh.out, "%s %d\n", verb, affected)
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		fmt.Fprintln(sh.out, verb)
	default:
		fmt.Fprintln(sh.out, "ok")
	}
}

// print streams a result to the terminal. An EXPLAIN prints its plan lines;
// a SELECT a header row from the result schema, its rows and their count.
func (sh *shell) print(rs rows, stmt sql.Statement, start time.Time) error {
	_, explain := stmt.(*sql.Explain)
	if s := rs.Schema(); !explain && s != nil {
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
		b, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
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
	if !explain {
		fmt.Fprintf(sh.out, "(%d rows)\n", n)
		sh.reportTiming(start)
	}
	return nil
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
		if sh.db == nil {
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
		if sh.db == nil {
			fmt.Fprintln(sh.out, "\\mix is embedded-only")
			break
		}
		sh.runMix()
	case "\\stats":
		if r, ok := sh.be.(remote); ok {
			r.printStats(sh.out)
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
		// What joins, aggregates and Top-Ns handed down to their scans, by outcome.
		for why, n := range st.HandOvers {
			fmt.Fprintf(sh.out, "  %-28s %d\n", "handover."+qpipe.HandOver(why).String(), n)
		}
		// Every OSP attach decision, by how it ended: a share or why not.
		for why, n := range st.Shares {
			fmt.Fprintf(sh.out, "  %-28s %d\n", "share."+qpipe.ShareDecision(why).String(), n)
		}
	case "\\help":
		fmt.Fprint(sh.out, `statements end with ';' (multi-line input is fine) and run under the
shell's session (with -connect, the connection's session on the server):
  SELECT ... / EXPLAIN SELECT ...      query
  CREATE TABLE / CREATE INDEX / INSERT DDL and loading
  UPDATE ... / DELETE FROM ...         transactional mutations
  BEGIN; ...; COMMIT | ROLLBACK        multi-statement transactions (reading a
                                       table the transaction wrote is an error)
  ANALYZE [table]                      rebuild planner statistics
  SET parallelism|batch_size|osp = v   session options for later statements
  SET statement_timeout = '500ms'      per-statement deadline (0 turns it off)
meta commands:
  \d [table]   list tables / show a table's schema and statistics
  \i FILE      run a .sql script
  \mix         run the embedded tpchmix query mix under the session (needs -demo tables)
  \set         show session settings
  \stats       engine and disk counters; share.<reason> counts OSP attach decisions
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
	res, err := m.Run(context.Background(), sh.db, &sh.sess, clients, perClient)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintf(sh.out, "%d queries, %d rows in %s — %d blocks read, %d OSP shares\n",
		res.Queries, res.Rows, res.Elapsed.Round(time.Millisecond), res.BlocksRead, res.Shares)
}

// printStats fetches and prints the server's counters over the wire.
func (r remote) printStats(out io.Writer) {
	stats, err := r.Stats(context.Background())
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintln(out, "server counters:")
	for _, name := range slices.Sorted(maps.Keys(stats)) {
		fmt.Fprintf(out, "  %-20s %d\n", name, stats[name])
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
