package sqlmix

import (
	"context"
	"strings"
	"testing"

	"qpipe"
	"qpipe/internal/plan"
)

func TestEmbeddedMixParses(t *testing.T) {
	m, err := Parse(TPCHMix())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Queries) != 7 {
		t.Errorf("queries = %d, want 7", len(m.Queries))
	}
	if m.Session.BatchSize != 64 {
		t.Errorf("session batch_size = %d, want 64 (from the SET statement)", m.Session.BatchSize)
	}
}

func TestEmbeddedPlanShareMixParses(t *testing.T) {
	m, err := Parse(PlanShareMix())
	if err != nil {
		t.Fatal(err)
	}
	// Four variant groups of three spellings each.
	if len(m.Queries) != 12 {
		t.Errorf("queries = %d, want 12", len(m.Queries))
	}
}

// The planner folds the mix's twelve spellings to four plans — also now that
// every scan of them is pruned to the columns its statement reads.
func TestPlanShareMixFoldsToFourSignatures(t *testing.T) {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Populate(db, 2_000, 100); err != nil {
		t.Fatal(err)
	}
	m, err := Parse(PlanShareMix())
	if err != nil {
		t.Fatal(err)
	}
	queries, err := m.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	sigs := map[string]int{}
	for i, q := range queries {
		p, err := q.Plan()
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		sigs[p.Signature()]++
		plan.Walk(p, func(n plan.Node) {
			if s, ok := n.(*plan.TableScan); ok && s.Table == "orders" && s.Project == nil {
				t.Errorf("query %d reads every column of orders: %s", i+1, p.Signature())
			}
		})
	}
	if len(sigs) != 4 {
		t.Errorf("%d spellings fold to %d signatures, want 4: %v", len(queries), len(sigs), sigs)
	}
}

func TestMixRejectsDDL(t *testing.T) {
	if _, err := Parse("CREATE TABLE t (a INT); SELECT a FROM t"); err == nil ||
		!strings.Contains(err.Error(), "SELECT and SET") {
		t.Errorf("DDL in mix: got %v", err)
	}
}

func TestMixEndToEnd(t *testing.T) {
	db, err := qpipe.Open(qpipe.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Populate(db, 2_000, 100); err != nil {
		t.Fatal(err)
	}
	m, err := Parse(TPCHMix())
	if err != nil {
		t.Fatal(err)
	}
	// Every query type-checks against the populated catalog.
	if _, err := m.Compile(db); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), db, &qpipe.Session{Parallelism: 2}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 12 {
		t.Errorf("queries = %d, want 12", res.Queries)
	}
	if res.Rows == 0 {
		t.Error("mix drained zero rows")
	}
	// And an opted-out run still works (the bench's Baseline side).
	if _, err := m.Run(context.Background(), db, nil, 2, 2, qpipe.WithoutOSP()); err != nil {
		t.Fatal(err)
	}
}
