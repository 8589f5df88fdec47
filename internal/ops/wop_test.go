// The paper's windows of opportunity (§3.2, Figure 4a) and the sharing
// experiments of §5 (Figures 8-11) as counters. An arrival is scripted by
// back-pressure, never by a clock: a query whose result is not read holds
// its whole pipeline, and a held bare scan holds the table's scanner and
// with it every query scanning that table. So "the second query arrives
// while the first is at this point" is a state the test puts the engine in,
// the same on any box under any load.
package ops

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"qpipe/internal/core"
	"qpipe/internal/plan"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/sm"
	"qpipe/internal/tuple"
	"qpipe/internal/volcano"
	"qpipe/internal/workload/tpch"
	"qpipe/internal/workload/wisconsin"
)

const wopPool = 32 // pages: less than any table a row scans

func wopTPCH(t *testing.T) *sm.Manager {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{Spindles: 1}, PoolPages: wopPool})
	if _, err := tpch.Load(mgr, 0.002, 11, true); err != nil {
		t.Fatal(err)
	}
	return mgr
}

func wopWisconsin(t *testing.T) *sm.Manager {
	t.Helper()
	mgr := sm.New(sm.Config{Disk: disk.Config{Spindles: 1}, PoolPages: wopPool})
	if _, err := wisconsin.Load(mgr, 3000, 0, 11); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// wopConfig is the default configuration with everything a held prefix
// depends on stated, so that the bounds below are the same on any box.
func wopConfig(edit func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	cfg.ScanParallelism = 2
	cfg.BufferCapacity = 2
	cfg.BatchSize = 16
	if edit != nil {
		edit(&cfg)
	}
	return cfg
}

// bareScan is the plan that pins a table's circular scanner while its result
// is not read: every row, so that every page makes a batch, of one column.
func bareScan(mgr *sm.Manager, table string) plan.Node {
	return plan.NewTableScan(table, mgr.MustTable(table).Schema, nil, []int{0}, false)
}

// belowSort takes TPC-H Q4's join from under its sort and group-by, so that
// its output can be held.
func belowSort(q4 plan.Node) plan.Node { return q4.Children()[0].Children()[0] }

func TestWindowsOfOpportunity(t *testing.T) {
	tpchMgr, wiscMgr := wopTPCH(t), wopWisconsin(t)
	p := tpch.DefaultParams()
	varied := func(n int) []plan.Node { // Figure 8's clients: qgen draws each one's predicates
		rng := rand.New(rand.NewSource(11))
		qs := make([]plan.Node, n)
		for i := range qs {
			qs[i] = tpch.Q6(tpch.RandomParams(rng))
		}
		return qs
	}
	wisc := &wisconsin.DB{BigN: 3000}
	hashJoin := func() plan.Node { return belowSort(tpch.Q4HashJoin(p)) }
	// Figure 9's join over ordered clustered index scans, without Q4's
	// filters: a filtered ordered scan shares by materialization whether its
	// join waited for it or not (TestMaterializedOrderedShare), so the split
	// is the only way in exactly when the scans keep every row. LINEITEM is
	// the relation worth sharing whichever input it is: the split checks the
	// cost of each input that has a scan in progress.
	mergeJoinOf := func(lineitemFirst bool) plan.Node {
		ls, os := tpch.LineitemSchema, tpch.OrdersSchema
		l := plan.NewIndexScan("LINEITEM", ls, "l_orderkey", tuple.Value{}, tuple.Value{}, true, true, nil,
			[]int{ls.MustColIndex("l_orderkey"), ls.MustColIndex("l_linenumber")})
		o := plan.NewIndexScan("ORDERS", os, "o_orderkey", tuple.Value{}, tuple.Value{}, true, true, nil,
			[]int{os.MustColIndex("o_orderkey"), os.MustColIndex("o_orderpriority")})
		if lineitemFirst {
			return plan.NewMergeJoin(l, o, 0, 0, false)
		}
		return plan.NewMergeJoin(o, l, 0, 0, false)
	}
	mergeJoin := func() plan.Node { return mergeJoinOf(true) }
	noOSP := func(c *core.Config) { c.OSP = false }

	for _, row := range []struct {
		name string
		mgr  *sm.Manager
		cfg  core.Config
		// pin names tables whose scanner a held bare scan pins before the
		// host is sent; host is read hold batches of its result and no
		// further before the others are sent, in order.
		pin    []string
		host   plan.Node
		hold   int
		others []plan.Node
		// opts are the others' per-query options (the pins and the host run
		// at the runtime's defaults): fan-out and batch size are the query's,
		// no signature sees them, and they change no share.
		opts core.QueryOptions
		// serial drains each of the others before the next is sent: without
		// OSP nothing ties them to the held host, and side by side they
		// would find each other's pages in the pool by luck.
		serial bool
		// cancel cancels the host's query once the others are sent, before
		// its first batch: what it hosted runs as itself, enqueued again
		// beside its dying host, and is one packet of the ledger still.
		cancel bool
		shares map[plan.OpType]int64 // SharesByOp when all is drained, exactly
		// unrun is how many of the others' scan packets were discarded
		// before they ran — their parent absorbed as a satellite, or a
		// split's gated inputs replaced: they read nothing and share nothing.
		unrun int
		// why is the decision each of the others got at the row's deciding
		// operator at: what that µEngine's row of the sharing ledger counts
		// between the host's hold and the drain, once per other, exactly.
		at  plan.OpType
		why core.ShareDecision
		// scans bounds the blocks read of a table in whole scans of it: at
		// least [0] (less a pool's worth for every scan after the first), at
		// most [1] (plus the prefix a held scan was at when the others
		// attached, which its wrap reads again).
		scans map[string][2]int64
	}{
		// Linear (Figures 4a and 8): a count with a predicate of its own
		// attaches to a scan in progress wherever it is, and the wrap reads
		// for it the prefix it missed; three ride as cheaply as one.
		{name: "linear-1", mgr: tpchMgr, cfg: wopConfig(nil),
			host: bareScan(tpchMgr, "LINEITEM"), hold: 1, others: varied(1),
			at: plan.OpTableScan, why: core.ShareRode,
			shares: map[plan.OpType]int64{plan.OpTableScan: 1},
			scans:  map[string][2]int64{"LINEITEM": {1, 1}}},
		{name: "linear-3", mgr: tpchMgr, cfg: wopConfig(nil),
			host: bareScan(tpchMgr, "LINEITEM"), hold: 1, others: varied(3),
			at: plan.OpTableScan, why: core.ShareRode,
			shares: map[plan.OpType]int64{plan.OpTableScan: 3},
			scans:  map[string][2]int64{"LINEITEM": {1, 1}}},
		// The same arrivals with OSP off: every count reads the table itself.
		{name: "linear-osp-off", mgr: tpchMgr, cfg: wopConfig(noOSP),
			host: bareScan(tpchMgr, "LINEITEM"), hold: 1, others: varied(3), serial: true,
			at: plan.OpTableScan, why: core.ShareOSPOff,
			shares: map[plan.OpType]int64{},
			scans:  map[string][2]int64{"LINEITEM": {4, 4}}},
		// Full (Figure 4a): a second, identical aggregate shares the first's
		// whole lifetime. The first's scan rides the pinned scanner; the
		// second aggregate finds the first, and its scan is discarded before
		// it runs.
		{name: "full-aggregate", mgr: tpchMgr, cfg: wopConfig(nil),
			pin: []string{"LINEITEM"}, host: tpch.Q6(p), others: []plan.Node{tpch.Q6(p)},
			at: plan.OpAggregate, why: core.ShareAttached,
			shares: map[plan.OpType]int64{plan.OpTableScan: 1, plan.OpAggregate: 1},
			unrun:  1,
			scans:  map[string][2]int64{"LINEITEM": {1, 1}}},
		// The same arrival rescued: the second aggregate's scan is still
		// discarded unrun, and the fresh one its rescue sends rides the pin.
		{name: "full-aggregate-rescued", mgr: tpchMgr, cfg: wopConfig(nil),
			pin: []string{"LINEITEM"}, host: tpch.Q6(p), others: []plan.Node{tpch.Q6(p)}, cancel: true,
			at: plan.OpAggregate, why: core.ShareHostCancelled,
			shares: map[plan.OpType]int64{plan.OpTableScan: 2},
			unrun:  1,
			scans:  map[string][2]int64{"LINEITEM": {1, 1}}},
		// Full (Figure 10): two sort-merge joins with the same BIG1 and BIG2
		// predicates and another for SMALL share both BIG sorts and the join
		// over them, nothing above, and every table is read once: the
		// second's BIG scans are discarded before they run, its SMALL scan
		// rides the pin.
		{name: "full-sort-merge", mgr: wiscMgr, cfg: wopConfig(nil),
			pin: []string{"BIG1", "BIG2", "SMALL"}, host: wisc.ThreeWayJoinQuery(60, 40),
			others: []plan.Node{wisc.ThreeWayJoinQuery(60, 60)},
			at:     plan.OpMergeJoin, why: core.ShareAttached,
			shares: map[plan.OpType]int64{plan.OpTableScan: 4, plan.OpSort: 2, plan.OpMergeJoin: 1},
			unrun:  2,
			scans:  map[string][2]int64{"BIG1": {1, 1}, "BIG2": {1, 1}, "SMALL": {1, 1}}},
		// Step (Figure 11): a hash join one batch past its first output is
		// still shared whole while that output fits the replay window, and
		// its scans are discarded before they run; with a window of one
		// tuple only its probe scan is shared (the build scan is over).
		{name: "step", mgr: tpchMgr, cfg: wopConfig(nil),
			host: hashJoin(), hold: 2, others: []plan.Node{hashJoin()},
			at: plan.OpHashJoin, why: core.ShareAttached,
			shares: map[plan.OpType]int64{plan.OpHashJoin: 1},
			unrun:  2},
		// The same arrival run at another fan-out and batch size shares the
		// same: per-query options are no part of any signature.
		{name: "step-other-options", mgr: tpchMgr, cfg: wopConfig(nil),
			host: hashJoin(), hold: 2, others: []plan.Node{hashJoin()},
			opts: core.QueryOptions{Parallelism: 4, BatchSize: 7},
			at:   plan.OpHashJoin, why: core.ShareAttached,
			shares: map[plan.OpType]int64{plan.OpHashJoin: 1},
			unrun:  2},
		{name: "step-window-1", mgr: tpchMgr,
			cfg:  wopConfig(func(c *core.Config) { c.ReplayWindow = 1 }),
			host: hashJoin(), hold: 2, others: []plan.Node{hashJoin()},
			at: plan.OpHashJoin, why: core.ShareWindowClosed,
			shares: map[plan.OpType]int64{plan.OpTableScan: 1}},
		// Ordered scans (Figure 9): with the step window shut, late
		// activation lets the second merge join split onto the first's scan
		// in progress; without it the scans start before the join can choose,
		// and an ordered scan that keeps every row joins nothing mid-flight.
		{name: "ordered-scans", mgr: tpchMgr,
			cfg:  wopConfig(func(c *core.Config) { c.ReplayWindow = 1 }),
			host: mergeJoin(), hold: 1, others: []plan.Node{mergeJoin()},
			at: plan.OpMergeJoin, why: core.ShareSplit,
			shares: map[plan.OpType]int64{plan.OpMergeJoin: 1},
			unrun:  2},
		// With ORDERS as the first input — the first with a scan in progress,
		// and not worth one more read of LINEITEM — the split still finds
		// LINEITEM.
		{name: "ordered-scans-orders-first", mgr: tpchMgr,
			cfg:  wopConfig(func(c *core.Config) { c.ReplayWindow = 1 }),
			host: mergeJoinOf(false), hold: 1, others: []plan.Node{mergeJoinOf(false)},
			at: plan.OpMergeJoin, why: core.ShareSplit,
			shares: map[plan.OpType]int64{plan.OpMergeJoin: 1},
			unrun:  2},
		{name: "ordered-scans-no-late-activation", mgr: tpchMgr,
			cfg:  wopConfig(func(c *core.Config) { c.ReplayWindow = 1; c.LateActivation = false }),
			host: mergeJoin(), hold: 1, others: []plan.Node{mergeJoin()},
			at: plan.OpMergeJoin, why: core.ShareWindowClosed,
			shares: map[plan.OpType]int64{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			rt := core.NewRuntime(row.mgr, row.cfg, All())
			defer rt.Close()
			if err := row.mgr.Pool.Invalidate(); err != nil {
				t.Fatal(err)
			}
			row.mgr.Disk.ResetStats()
			ctx := context.Background()

			var plans []plan.Node
			for _, table := range row.pin {
				plans = append(plans, bareScan(row.mgr, table))
			}
			nheld := len(plans) + 1 // the pins and the host: held until everything is sent
			plans = append(append(plans, row.host), row.others...)
			queries := make([]*core.Query, len(plans))
			var before map[plan.OpType]core.EngineStats // when the host is held
			got := make([][]tuple.Tuple, len(plans))
			take := func(i, batches int) {
				for ; batches > 0; batches-- {
					b, err := queries[i].Result.Get()
					if err != nil {
						t.Fatalf("plan %d: held result: %v", i, err)
					}
					got[i] = append(got[i], b...)
				}
			}
			for i, pl := range plans {
				var opts core.QueryOptions
				if i > len(row.pin) {
					opts = row.opts
				}
				q, err := rt.SubmitOpts(ctx, pl, opts)
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
				switch {
				case i < len(row.pin):
					take(i, 1) // its scanner is registered and in flight
				case i == len(row.pin):
					take(i, row.hold)
					before = rt.Stats().EngineStats
				case row.serial:
					if got[i], err = sdDrain(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			host := queries[len(row.pin)]
			if row.cancel {
				host.Cancel()
				<-host.Root.Done() // it rescued what it hosted before it finished
				eventually(t, "the rescued packets decided", func() bool { return maps.Equal(rt.Stats().SharesByOp, row.shares) })
			}
			var wg sync.WaitGroup
			errs := make([]error, len(plans))
			for i, q := range queries {
				if i >= nheld && row.serial {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rest, err := sdDrain(q)
					got[i], errs[i] = append(got[i], rest...), err
				}()
			}
			wg.Wait()
			st := rt.Stats()
			reads, shares := row.mgr.Disk.Stats().ByFile, st.SharesByOp
			if got := st.EngineStats[row.at].Shares[row.why] - before[row.at].Shares[row.why]; got != int64(len(row.others)) {
				t.Errorf("%s: %d decided %s, want each of the %d others", row.at, got, row.why, len(row.others))
			}
			var attaches int64
			for _, q := range queries {
				attaches += q.Stats.SatelliteAttaches()
			}
			if total := rt.TotalShares(); attaches != total {
				t.Errorf("the queries' satellite attaches sum to %d, the µEngines' shares to %d", attaches, total)
			}
			// The ledger counts packets: one decision for each enqueued.
			for op, es := range st.EngineStats {
				var decided int64
				for _, n := range es.Shares {
					decided += n
				}
				if decided != es.Enqueued {
					t.Errorf("%s: %d decisions for %d packets enqueued", op, decided, es.Enqueued)
				}
			}

			if !maps.Equal(shares, row.shares) {
				t.Errorf("shares by operator %v, want %v", shares, row.shares)
			}
			unrun := 0
			for _, q := range queries[nheld:] {
				for _, pkt := range q.Packets() {
					switch pkt.Node.(type) {
					case *plan.TableScan, *plan.IndexScan:
						if pkt.State() == core.PacketCancelled && pkt.Out.Produced() == 0 {
							unrun++
						}
					}
				}
			}
			if unrun != row.unrun {
				t.Errorf("%d of the others' scan packets discarded unrun, want %d", unrun, row.unrun)
			}
			// What a held scan had read when the others attached: the batches
			// the test took, a full result buffer, and a page in each
			// partition's hands.
			prefix := int64(1 + row.cfg.BufferCapacity + row.cfg.ScanParallelism)
			for table, n := range row.scans {
				f := row.mgr.MustTable(table).Heap
				lo, hi := n[0]*f.NumPages()-(n[0]-1)*wopPool, n[1]*f.NumPages()+prefix
				if got := reads[f.Name]; got < lo || got > hi {
					t.Errorf("%d blocks of %s read, want %d to %d (%d pages)", got, table, lo, hi, f.NumPages())
				}
			}
			oracle := volcano.New(row.mgr)
			for i, pl := range plans {
				if row.cancel && queries[i] == host {
					continue
				}
				if errs[i] != nil {
					t.Fatalf("plan %d: %v", i, errs[i])
				}
				want, err := oracle.Run(ctx, pl)
				if err != nil {
					t.Fatal(err)
				}
				sdCompare(t, fmt.Sprintf("plan %d", i), pl, got[i], sdSorted(want))
			}
		})
	}
}
