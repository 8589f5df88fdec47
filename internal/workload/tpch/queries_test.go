package tpch

import (
	"context"
	"fmt"
	"io"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/ops"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
)

// loadedMix loads the dataset the paper's mix runs on, small enough for a
// unit test (the pool still holds less than LINEITEM).
func loadedMix(t *testing.T, withClustered bool) *sm.Manager {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{Spindles: 1}, PoolPages: 32})
	if _, err := Load(mgr, 0.001, 7, withClustered); err != nil {
		t.Fatal(err)
	}
	return mgr
}

func engineOver(t *testing.T, mgr *sm.Manager, cfg core.Config) *core.Runtime {
	t.Helper()
	rt := core.NewRuntime(mgr, cfg, ops.All())
	t.Cleanup(rt.Close)
	return rt
}

// rowCounts runs p on the engine and returns its rows as a multiset of their
// renderings (group-by order differs between engines).
func rowCounts(t *testing.T, rt *core.Runtime, p plan.Node) map[string]int {
	t.Helper()
	q, err := rt.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	for {
		b, err := q.Result.Get()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b...)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	return multiset(rows)
}

func multiset(rows []tuple.Tuple) map[string]int {
	counts := make(map[string]int)
	for _, r := range rows {
		counts[r.String()]++
	}
	return counts
}

func sameCounts(t *testing.T, what string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct rows, want %d", what, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: row %s %d times, want %d", what, k, got[k], n)
		}
	}
}

// TestAllMixQueriesAgree cross-validates the two engines: every query in
// the paper's mix must produce identical rows on QPipe and on the iterator
// engine (they share nothing but the plan and the data) — under the default
// configuration, and with the deadlock detector off (the mix is acyclic; go
// test's timeout is the guard against a hang).
func TestAllMixQueriesAgree(t *testing.T) {
	mgr := loadedMix(t, false)
	oracle := volcano.New(mgr)
	undetected := core.DefaultConfig()
	undetected.DeadlockInterval = -1
	for _, arm := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.DefaultConfig()},
		{"deadlock-detector-off", undetected},
	} {
		t.Run(arm.name, func(t *testing.T) {
			rt := engineOver(t, mgr, arm.cfg)
			for _, qn := range MixQueries {
				want, err := oracle.Run(context.Background(), Query(qn, DefaultParams()))
				if err != nil {
					t.Fatalf("Q%d volcano: %v", qn, err)
				}
				if len(want) == 0 {
					t.Fatalf("Q%d produced no rows; scale too small", qn)
				}
				sameCounts(t, fmt.Sprintf("Q%d", qn), rowCounts(t, rt, Query(qn, DefaultParams())), multiset(want))
			}
		})
	}
}

// TestQ4VariantsAgree: Figure 9's merge join over ordered clustered index
// scans and Figure 11's hybrid hash join are one query.
func TestQ4VariantsAgree(t *testing.T) {
	rt := engineOver(t, loadedMix(t, true), core.DefaultConfig())
	mj := rowCounts(t, rt, Q4MergeJoin(DefaultParams()))
	if len(mj) == 0 {
		t.Fatal("Q4 produced no groups; scale too small")
	}
	sameCounts(t, "Q4 hash join against merge join", rowCounts(t, rt, Q4HashJoin(DefaultParams())), mj)
}
