// Package sqlmix runs declarative SQL query mixes: a .sql file's SELECT
// statements dealt round-robin to concurrent clients through
// db.QuerySession, with SET statements folded into a qpipe.Session. It is
// the SQL-text successor to the hand-built plan mixes — the tpchmix
// scenario (examples/tpchmix, the shell's -demo dataset) runs from the
// embedded tpchmix.sql instead of Go code, so new mixes are a text file
// away.
package sqlmix

import (
	"context"
	_ "embed"
	"fmt"
	"sync"
	"time"

	"qpipe"
	"qpipe/sql"
)

//go:embed tpchmix.sql
var tpchMix string

//go:embed schema.sql
var tpchSchema string

//go:embed planshare.sql
var planShareMix string

// TPCHMix returns the embedded tpchmix query mix (SQL text).
func TPCHMix() string { return tpchMix }

// PlanShareMix returns the embedded planshare query mix (SQL text): every
// query written three ways — commuted comparisons, shuffled conjuncts,
// BETWEEN vs explicit bounds, swapped join order — so the optimizer's plan
// normalization is what turns the spellings into OSP sharing opportunities.
func PlanShareMix() string { return planShareMix }

// TPCHSchema returns the embedded tpchmix DDL (SQL text).
func TPCHSchema() string { return tpchSchema }

// Mix is a parsed query mix: the SELECT statements to deal to clients and
// the session settings the script's SET statements established.
type Mix struct {
	// Queries are the mix's SELECT statements, rendered canonically.
	Queries []string
	// Session carries the script's SET statements (parallelism, batch_size,
	// osp), applied to every query run.
	Session qpipe.Session
}

// Parse builds a Mix from SQL text. Statements other than SELECT and SET
// are rejected: a mix file declares load, not schema (use db.Exec for DDL
// scripts).
func Parse(text string) (*Mix, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return nil, err
	}
	m := &Mix{}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sql.Select:
			m.Queries = append(m.Queries, s.String())
		case *sql.Set:
			if err := m.Session.Apply(s); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sqlmix: mix files hold SELECT and SET statements only, got %T (%s)", stmt, stmt)
		}
	}
	if len(m.Queries) == 0 {
		return nil, fmt.Errorf("sqlmix: no SELECT statements in mix")
	}
	return m, nil
}

// Compile type-checks every mix query against the DB's catalog, returning
// the prepared queries (and surfacing unknown tables/columns before any
// client starts).
func (m *Mix) Compile(db *qpipe.DB) ([]*qpipe.Query, error) {
	out := make([]*qpipe.Query, len(m.Queries))
	for i, text := range m.Queries {
		q, err := db.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("sqlmix: query %d: %w", i+1, err)
		}
		out[i] = q
	}
	return out, nil
}

// Result summarizes one mix run.
type Result struct {
	Elapsed time.Duration
	// Queries is the number of query executions completed.
	Queries int
	// Rows is the total number of result rows drained.
	Rows int64
	// Shares counts OSP sharing events during the run.
	Shares int64
	// BlocksRead counts simulated disk blocks read during the run.
	BlocksRead int64
}

// Run deals the mix's queries round-robin to clients concurrent workers,
// each executing perClient queries through db.QuerySession under sess (nil:
// none) and discarding the rows (the paper's experiments discard result
// tuples). The mix session's options apply after sess's settings, and extra
// options after both (so a caller's WithoutOSP wins for A/B runs). Inside
// sess's open transaction, a query of a table it has written fails with a
// *qpipe.TxConflictError. Counters are deltas over the run.
func (m *Mix) Run(ctx context.Context, db *qpipe.DB, sess *qpipe.Session, clients, perClient int, extra ...qpipe.QueryOption) (Result, error) {
	opts := append(m.Session.Options(), extra...)
	sharesBefore := db.TotalShares()
	readsBefore := db.DiskStats().Reads

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var rows int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := db.QuerySession(ctx, sess, m.Queries[(c+i)%len(m.Queries)], opts...)
				var n int64
				if err == nil {
					n, err = res.Discard()
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				rows += n
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r := Result{
		Elapsed:    time.Since(start),
		Queries:    clients * perClient,
		Rows:       rows,
		Shares:     db.TotalShares() - sharesBefore,
		BlocksRead: db.DiskStats().Reads - readsBefore,
	}
	return r, firstErr
}

// Populate creates and fills the tpchmix tables: DDL from the embedded
// schema.sql through db.Exec, data generated deterministically (the same
// distribution examples/tpchmix uses).
func Populate(db *qpipe.DB, orders, customers int) error {
	if _, err := db.Exec(context.Background(), tpchSchema); err != nil {
		return err
	}
	rows := make([]qpipe.Row, orders)
	for i := range rows {
		rows[i] = qpipe.R(i, i%customers, i%7, i%5, float64(i%997))
	}
	if err := db.Load("orders", rows); err != nil {
		return err
	}
	custs := make([]qpipe.Row, customers)
	for i := range custs {
		custs[i] = qpipe.R(i, i%4, float64(i%500))
	}
	return db.Load("customers", custs)
}
