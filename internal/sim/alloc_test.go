package sim_test

import (
	"testing"

	"divlab/internal/dram"
	"divlab/internal/sim"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// The steady-state hot paths must stay allocation-free: per-instruction and
// per-access garbage was the dominant cost of the original simulator (the
// issue closure of each request, the map-shaped per-owner accounting, the
// per-access Event copies). These tests pin the rewritten paths at exactly
// zero allocations so a regression fails CI rather than only showing up in
// benchmark numbers.

func hotPath(t *testing.T) *sim.HotPath {
	t.Helper()
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("workload stream.pure not registered")
	}
	tpc, err := sim.ByName("tpc")
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewHotPath(w, tpc.Factory, sim.DefaultConfig(0))
}

// TestDemandHitPathAllocFree pins the L1-hit demand path — the innermost
// loop of every simulation — at zero allocations per access.
func TestDemandHitPathAllocFree(t *testing.T) {
	hp := hotPath(t)
	const pc, base = 0x400100, uint64(1) << 28
	// One lap installs the 32 KB working set; afterwards every access hits.
	i := uint64(0)
	touch := func() {
		hp.Access(pc, base+(i&511)*64, false)
		i++
	}
	for k := 0; k < 1024; k++ {
		touch()
	}
	if n := testing.AllocsPerRun(2000, touch); n != 0 {
		t.Fatalf("L1-hit demand path allocates %.1f allocs/op, want 0", n)
	}
}

// TestDemandMissPathAllocFree streams over a large region so every access is
// a primary L1 miss descending the full hierarchy into DRAM.
func TestDemandMissPathAllocFree(t *testing.T) {
	hp := hotPath(t)
	const pc, base = 0x400104, uint64(2) << 28
	i := uint64(0)
	touch := func() {
		hp.Access(pc, base+i*64, false)
		i++
	}
	for k := 0; k < 4096; k++ {
		touch()
	}
	if n := testing.AllocsPerRun(2000, touch); n != 0 {
		t.Fatalf("demand miss path allocates %.1f allocs/op, want 0", n)
	}
}

// TestPrefetchIssuePathAllocFree drives a canonical strided load stream
// through the dispatch hook until T2 locks on and issues prefetches every
// trigger, then pins the issue+install path (queue, classify, hierarchy
// insertion, per-owner accounting) at zero allocations.
func TestPrefetchIssuePathAllocFree(t *testing.T) {
	hp := hotPath(t)
	const pc, base = 0x400108, uint64(3) << 28
	in := trace.Inst{PC: pc, Kind: trace.Load, Dst: 5, Src1: 4}
	i := uint64(0)
	step := func() {
		in.Addr = base + i*64
		hp.OnInst(&in)
		hp.Access(pc, in.Addr, false)
		i++
	}
	for k := 0; k < 4096; k++ {
		step()
	}
	issuedBefore := hp.Result().Issued
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Fatalf("prefetch issue path allocates %.1f allocs/op, want 0", n)
	}
	if hp.Result().Issued == issuedBefore {
		t.Fatal("strided stream issued no prefetches; the path under test never ran")
	}
}

// Run allocation budgets: the result and report bookkeeping around an access
// loop that allocates nothing. Each keeps the headroom maxRunAllocs was given
// over the 67 allocations first measured, about 13%.
const (
	// maxRunAllocs covers one 100k-instruction single-core run under tpc
	// (69 measured).
	maxRunAllocs = 76
	// maxMixAllocsNone and maxMixAllocsTPC cover one 4-core mix at 25k
	// instructions per core, under none (139 measured) and tpc (227
	// measured) with either drop policy.
	maxMixAllocsNone = 158
	maxMixAllocsTPC  = 258
)

// TestRunAllocBudget holds whole runs to their allocation budgets: a
// 100k-instruction stream.pure run under tpc, and a 4-core mix under none
// and tpc with each drop policy, which adds the shared L3, the DRAM
// contention and the multicore scheduler. Instruction streams are recorded
// once and replayed, as the engine replays them across an experiment matrix,
// so the counts cover the simulator and not the workload generator.
func TestRunAllocBudget(t *testing.T) {
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("workload stream.pure not registered")
	}
	tpc, err := sim.ByName("tpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("1core", func(t *testing.T) {
		cfg := sim.DefaultConfig(100_000)
		rec := sim.Record(w, cfg.Seed, cfg.Insts)
		n := testing.AllocsPerRun(10, func() { sim.RunSingleOn(rec.Instance(), w, tpc.Factory, cfg) })
		if n > maxRunAllocs {
			t.Fatalf("a 100k-instruction run allocates %.0f times, budget %d", n, maxRunAllocs)
		}
		t.Logf("%.0f allocations per run (budget %d)", n, maxRunAllocs)
	})

	mix := workloads.Mixes(1, 3)[0]
	cfg := sim.DefaultConfig(25_000)
	cfg.Cores = len(mix.Apps)
	var recs [len(mix.Apps)]*sim.Recorded
	for i, app := range mix.Apps {
		recs[i] = sim.Record(app, sim.MixSeed(cfg, i), cfg.Insts)
	}
	for _, pf := range []struct {
		named  sim.Named
		budget int
	}{{sim.Baseline(), maxMixAllocsNone}, {tpc, maxMixAllocsTPC}} {
		for _, policy := range []struct {
			name string
			p    dram.DropPolicy
		}{{"random", dram.DropRandomPrefetch}, {"lowpri", dram.DropLowPriorityPrefetch}} {
			cfg := cfg
			cfg.DropPolicy = policy.p
			t.Run("4core/"+pf.named.Name+"/"+policy.name, func(t *testing.T) {
				n := testing.AllocsPerRun(10, func() {
					insts := make([]workloads.Instance, len(recs))
					for i, rec := range recs {
						insts[i] = rec.Instance()
					}
					sim.RunMultiOn(insts, mix, pf.named.Factory, cfg)
				})
				if n > float64(pf.budget) {
					t.Fatalf("a 4-core %s run of %s allocates %.0f times, budget %d", pf.named.Name, mix.Name, n, pf.budget)
				}
				t.Logf("%.0f allocations per run (budget %d)", n, pf.budget)
			})
		}
	}
}
