package harness

import (
	"context"
	"testing"
	"time"

	"qpipe/internal/core"
	"qpipe/internal/plan"
	"qpipe/internal/workload/tpch"
)

// Ablations of the design choices DESIGN.md §5 calls out. These are not
// paper figures; they verify each knob does what it claims.

// TestAblationLateActivation: with late activation disabled, the
// merge-join split cannot happen (children start scanning immediately), so
// two staggered Q4 merge-join queries share less.
func TestAblationLateActivation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	env, err := NewTPCHEnv(midScale(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	run := func(cfg core.Config, name string) int64 {
		sys, err := env.NewQPipeWith(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.SetMeasuring(true)
		defer env.SetMeasuring(false)
		mk := func() plan.Node { return tpch.Q4MergeJoin(tpch.DefaultParams()) }
		if err := warmup(env, sys, mk()); err != nil {
			t.Fatal(err)
		}
		standalone, err := StandaloneResponse(env, sys, mk)
		if err != nil {
			t.Fatal(err)
		}
		sys.Manager().Pool.Invalidate()
		res := RunStaggered(env, sys, []plan.Node{mk(), mk()}, standalone*4/10)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Shares
	}
	withLA := core.DefaultConfig()
	withoutLA := core.DefaultConfig()
	withoutLA.LateActivation = false
	sharesWith := run(withLA, "qpipe-la")
	sharesWithout := run(withoutLA, "qpipe-nola")
	t.Logf("shares with late activation: %d, without: %d", sharesWith, sharesWithout)
	if sharesWith == 0 {
		t.Error("late activation on: expected the merge-join split to share")
	}
}

// TestAblationReplayWindow: with a zero replay window the hash-join attach
// degrades to strict step semantics — a satellite arriving after the first
// output tuple cannot attach at the join, though scans still share.
func TestAblationReplayWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	env, err := NewTPCHEnv(midScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	run := func(replay int, name string) map[plan.OpType]int64 {
		cfg := core.DefaultConfig()
		cfg.ReplayWindow = replay
		sys, err := env.NewQPipeWith(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs := sys.(*QPipeSystem)
		env.SetMeasuring(true)
		defer env.SetMeasuring(false)
		mk := func() plan.Node { return tpch.Q4HashJoin(tpch.DefaultParams()) }
		if err := warmup(env, sys, mk()); err != nil {
			t.Fatal(err)
		}
		standalone, err := StandaloneResponse(env, sys, mk)
		if err != nil {
			t.Fatal(err)
		}
		sys.Manager().Pool.Invalidate()
		// Arrive mid-probe: past the first output tuple, and before the
		// probe scan ends. That scan runs at the disk's pace since the join
		// hands it the build keys (it no longer waits for the join to take
		// rows it would drop), so it is over earlier in the response, and
		// earlier still when a loaded box stretches the CPU phases after it
		// and not the disk's sleeps: 6/10 landed past it in one run of four.
		res := RunStaggered(env, sys, []plan.Node{mk(), mk()}, standalone*4/10)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return qs.Eng.Stats().SharesByOp
	}
	generous := run(1<<20, "qpipe-replay-big")
	strict := run(0, "qpipe-replay-0")
	t.Logf("shares with big replay: %v, strict: %v", generous, strict)
	// With an effectively unlimited replay the whole join (or an ancestor)
	// dedupes; with none, sharing must fall back to the scans.
	if generous[plan.OpHashJoin]+generous[plan.OpSort]+generous[plan.OpGroupBy] == 0 {
		t.Error("generous replay: expected join-or-above sharing")
	}
	if strict[plan.OpTableScan] == 0 {
		t.Error("strict replay: expected scan-level sharing fallback")
	}
}

// TestAblationFixedWorkerPools: the engine must behave identically (same
// results) under the paper's fixed per-µEngine thread pools, provided the
// pool is deep enough for the plan shapes in use.
func TestAblationFixedWorkerPools(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.WorkersPerEngine = 4
	sys, err := env.NewQPipeWith("qpipe-fixed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := tpch.DefaultParams()
	for _, qn := range tpch.MixQueries {
		if err := sys.Exec(context.Background(), tpch.Query(qn, params)); err != nil {
			t.Fatalf("Q%d under fixed pools: %v", qn, err)
		}
	}
}

// TestAblationDeadlockDetectorOff: with the detector disabled the engine
// still completes ordinary (acyclic) workloads.
func TestAblationDeadlockDetectorOff(t *testing.T) {
	env, err := NewTPCHEnv(tinyScale(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.DeadlockInterval = -1 // disabled
	sys, err := env.NewQPipeWith("qpipe-nodd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sys.Exec(context.Background(), tpch.Q12(tpch.DefaultParams())); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("suspiciously slow without detector")
	}
}
