package qpipe

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"qpipe/internal/plan"
	"qpipe/internal/tuple"
)

// Facade tests: batches and EXPLAIN through the public DB/builder surface.

// TestRunBatchSharesCommonSubtrees: an MQO-style batch whose queries share
// a common subexpression must execute the common part once.
func TestRunBatchSharesCommonSubtrees(t *testing.T) {
	db := openTestDB(t, 3000, Options{PoolPages: 64})
	// Slow disk so batch members genuinely overlap.
	db.SetDiskLatency(40*time.Microsecond, 60*time.Microsecond, 0)
	defer db.SetDiskLatency(0, 0, 0)

	common := func() *Query {
		// Identical subtree in both queries: sorted projected scan.
		return db.Scan("t").Select("grp", "val").Sort("grp")
	}
	batch := []*Query{
		common().Aggregate(Sum(Col("val"))),
		common().GroupBy([]string{"grp"}, Count()),
	}
	results, err := db.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, r := range results {
		wg.Add(1)
		go func(r *Result) {
			defer wg.Done()
			if _, err := r.Discard(); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if db.TotalShares() == 0 {
		t.Fatal("batch with common subtree produced no sharing")
	}
}

func TestExplain(t *testing.T) {
	db := openTestDB(t, 10, Options{PoolPages: 32})
	out, err := db.Scan("t").
		Filter(Col("k").Lt(Int(5))).
		Sort("k").
		GroupBy([]string{"grp"}, Count()).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer pushes the filter into the scan, and every node carries
	// a cardinality annotation.
	for _, want := range []string{"GroupBy", "Sort", "TableScan t", "filter=", "rows≈"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Root first, indented children.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || strings.HasPrefix(lines[0], " ") || !strings.HasPrefix(lines[2], "    ") {
		t.Errorf("explain layout:\n%s", out)
	}
}

// TestQueryBatchErrorDrainsPrior: a batch member the runtime refuses at
// submit (an operator type no µEngine serves) must cancel AND drain the
// already-submitted members and return the typed *BatchError.
func TestQueryBatchErrorDrainsPrior(t *testing.T) {
	db := openTestDB(t, 2000, Options{PoolPages: 32})
	good := db.Scan("t")
	bad := planQuery(db, badPlanNode{})
	results, err := db.RunBatch(context.Background(), []*Query{good, bad})
	if err == nil {
		for _, r := range results {
			r.Cancel()
		}
		t.Fatal("batch with invalid plan should fail")
	}
	if results != nil {
		t.Fatal("failed batch should return no results")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("err = %v, want *BatchError at index 1", err)
	}
	if len(be.Teardown) != 0 {
		t.Fatalf("teardown of the good member should be clean, got %v", be.Teardown)
	}
	waitStat(t, db, func(s Stats) int64 { return s.InFlight }, 0, "InFlight")
}

// badPlanNode is a plan node with an operator type no µEngine serves.
type badPlanNode struct{}

func (badPlanNode) Op() plan.OpType       { return "nonexistent" }
func (badPlanNode) Children() []plan.Node { return nil }
func (badPlanNode) Schema() *tuple.Schema { return tuple.NewSchema() }
func (badPlanNode) Signature() string     { return "bad" }
