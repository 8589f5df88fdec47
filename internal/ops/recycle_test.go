// An allocation gate on the emitter and an aliased-mutation guard on batch
// fan-out: the emitter's produce→consume cycle must stay at or below one
// allocation per batch, and parallel, shared execution must produce
// byte-identical results to the serial engine (an array shared between two
// consumers, or a replayed prefix lost or doubled, would surface here as
// corrupted or duplicated rows).
package ops

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/expr"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
)

// TestEmitterFlushAllocGate asserts the emitter's steady-state flush path
// stays within one allocation per batch: the batch array itself (the buffer
// queue keeps its own array across drains).
func TestEmitterFlushAllocGate(t *testing.T) {
	const batchSize = 64
	buf := tbuf.New(8)
	out := tbuf.NewSharedOut(buf, 0)
	pkt := &core.Packet{Out: out}
	em := newEmitter(pkt, batchSize)
	row := tuple.Tuple{tuple.I64(1), tuple.F64(2.5)}
	// Prime the queue and the replay-window invalidation outside the gate.
	for i := 0; i < batchSize; i++ {
		if err := em.add(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := buf.Get(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < batchSize; i++ {
			if err := em.add(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := buf.Get(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("emitter flush cycle: %.2f allocs per batch, want <= 1", allocs)
	}
}

// recycleSchema is the parity tables' schema: join key, group key, measure.
func recycleSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("k", tuple.KindInt),
		tuple.Col("g", tuple.KindInt),
		tuple.Col("v", tuple.KindInt),
	)
}

func loadRecyclePair(t *testing.T, nl, nr int) *sm.Manager {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mgr := sm.New(sm.Config{Disk: disk.Config{BlockSize: 1024}, PoolPages: 32})
	for name, n := range map[string]int{"L": nl, "R": nr} {
		if _, err := mgr.CreateTable(name, recycleSchema()); err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{
				tuple.I64(int64(rng.Intn(60))),
				tuple.I64(int64(i % 13)),
				tuple.I64(int64(rng.Intn(1000))),
			}
		}
		if err := mgr.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return mgr
}

func collect(t *testing.T, rt *core.Runtime, p plan.Node) []string {
	t.Helper()
	q, err := rt.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainAll(q.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	return sortedRows(rows)
}

// TestRecycledBatchParity is the fan-out/replay parity test: it runs a hash
// join and a group-by on an engine configured to move as many batches
// between consumers as possible — tiny batch size, intra-operator
// parallelism, OSP on with several concurrent identical queries so the
// fan-out, replay-window and satellite-copy paths all engage — and requires
// results identical to a serial, sharing-free run. An array shared by two
// consumers, or a replayed prefix lost or doubled, fails the multiset
// comparison.
func TestRecycledBatchParity(t *testing.T) {
	mgr := loadRecyclePair(t, 700, 900)

	serialCfg := core.BaselineConfig()
	serialCfg.ScanParallelism = 1
	serial := core.NewRuntime(mgr, serialCfg, All())
	defer serial.Close()

	stressCfg := core.DefaultConfig()
	stressCfg.ScanParallelism = 4
	stressCfg.BatchSize = 4
	stress := core.NewRuntime(mgr, stressCfg, All())
	defer stress.Close()

	joinPlan := func() plan.Node {
		return plan.NewHashJoin(
			plan.NewTableScan("L", recycleSchema(), nil, nil, false),
			plan.NewTableScan("R", recycleSchema(), nil, nil, false), 0, 0)
	}
	gbPlan := func() plan.Node {
		return plan.NewGroupBy(plan.NewTableScan("R", recycleSchema(), nil, nil, false),
			[]int{1}, []expr.AggSpec{
				{Kind: expr.AggCount},
				{Kind: expr.AggSum, Arg: expr.Col(2)},
				{Kind: expr.AggMax, Arg: expr.Col(2)},
			})
	}

	for name, mk := range map[string]func() plan.Node{"join": joinPlan, "groupby": gbPlan} {
		want := collect(t, serial, mk())
		// Several concurrent identical queries: OSP absorbs some as
		// satellites, exercising fan-out copies and the replay window.
		const clients = 3
		got := make([][]string, clients)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				q, err := stress.Submit(context.Background(), mk())
				if err == nil {
					var rows []tuple.Tuple
					rows, err = drainAll(q.Result)
					if werr := q.Wait(); err == nil {
						err = werr
					}
					got[c] = sortedRows(rows)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s client %d: %w", name, c, err)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		for c := 0; c < clients; c++ {
			if len(got[c]) != len(want) {
				t.Fatalf("%s client %d: %d rows, serial %d", name, c, len(got[c]), len(want))
			}
			for i := range want {
				if got[c][i] != want[i] {
					t.Fatalf("%s client %d row %d: %q != serial %q", name, c, i, got[c][i], want[i])
				}
			}
		}
	}
}
