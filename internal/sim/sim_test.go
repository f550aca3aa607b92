package sim

import (
	"bytes"
	"testing"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/trace"
	"divlab/internal/vmem"
	"divlab/internal/workloads"
)

func TestDeterminism(t *testing.T) {
	w, _ := workloads.ByName("mix.phases")
	cfg := DefaultConfig(60_000)
	tpc, _ := ByName("tpc")
	a := RunSingle(w, tpc.Factory, cfg)
	b := RunSingle(w, tpc.Factory, cfg)
	if a.Core.Cycles != b.Core.Cycles || a.L1Misses != b.L1Misses || a.Issued != b.Issued {
		t.Errorf("same seed diverged: %+v vs %+v", a.Core, b.Core)
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range []string{"none", "tpc", "t2", "t2+p1", "ghb-pc/dc", "fdp", "vldp",
		"spp", "bop", "ampm", "sms", "nextline", "stride", "tpc+sms", "shunt+sms"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("registry missing %q: %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown name must not resolve")
	}
}

func TestAllEvaluatedRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is long")
	}
	cfg := DefaultConfig(20_000)
	for _, p := range AllEvaluated() {
		for _, w := range workloads.All() {
			r := RunSingle(w, p.Factory, cfg)
			if r.Core.Insts != cfg.Insts {
				t.Fatalf("%s on %s retired %d of %d", p.Name, w.Name, r.Core.Insts, cfg.Insts)
			}
		}
	}
}

func TestBaselineNeverPrefetches(t *testing.T) {
	w, _ := workloads.ByName("stream.pure")
	r := RunSingle(w, nil, DefaultConfig(50_000))
	if r.Issued != 0 || r.Filtered != 0 {
		t.Errorf("baseline issued %d prefetches", r.Issued)
	}
}

func TestDestOverride(t *testing.T) {
	w, _ := workloads.ByName("stream.pure")
	cfg := DefaultConfig(80_000)
	tpc, _ := ByName("tpc")
	// Forcing everything to L2 must leave L1 misses (mostly) unfixed while
	// still reducing L2 misses.
	cfg.DestOverride = func(prefetch.Request, workloads.Category) mem.Level { return mem.L2 }
	rl2 := RunSingle(w, tpc.Factory, cfg)
	cfg.DestOverride = nil
	rl1 := RunSingle(w, tpc.Factory, cfg)
	if rl2.L1Misses <= rl1.L1Misses {
		t.Errorf("L2-only destination should leave more L1 misses: %d vs %d", rl2.L1Misses, rl1.L1Misses)
	}
}

func TestMultiCoreSharing(t *testing.T) {
	mix := workloads.Mixes(1, 3)[0]
	cfg := DefaultConfig(40_000)
	cfg.Cores = 4
	rs := RunMulti(mix, nil, cfg)
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Core.Insts != cfg.Insts {
			t.Errorf("core %d retired %d", i, r.Core.Insts)
		}
		// RunMulti must expose the shared controller's stats like RunSingle
		// and RunTrace do; the system-wide line count is the Traffic figure.
		if r.DRAM.Lines() == 0 {
			t.Errorf("core %d DRAM stats not populated", i)
		}
		if r.DRAM.Lines() != r.Traffic {
			t.Errorf("core %d DRAM lines %d != Traffic %d", i, r.DRAM.Lines(), r.Traffic)
		}
	}
	// Contention check: the same app alone must be at least as fast as in
	// the mix (shared L3/DRAM can only hurt).
	solo := RunSingle(mix.Apps[0], nil, DefaultConfig(40_000))
	if rs[0].IPC() > solo.IPC()*1.05 {
		t.Errorf("shared run faster than solo: %.3f vs %.3f", rs[0].IPC(), solo.IPC())
	}
}

func TestMultiCoreWithPrefetcher(t *testing.T) {
	mix := workloads.Mixes(1, 4)[0]
	cfg := DefaultConfig(30_000)
	cfg.Cores = 4
	tpc, _ := ByName("tpc")
	base := RunMulti(mix, nil, cfg)
	rs := RunMulti(mix, tpc.Factory, cfg)
	var wsum float64
	for i := range rs {
		if b := base[i].IPC(); b > 0 {
			wsum += rs[i].IPC() / b
		}
	}
	if ws := wsum / 4; ws < 0.9 {
		t.Errorf("TPC multicore weighted speedup %.3f < 0.9", ws)
	}
}

func TestFootprintCollection(t *testing.T) {
	w, _ := workloads.ByName("stream.pure")
	cfg := DefaultConfig(50_000)
	cfg.CollectFootprint = true
	tpc, _ := ByName("tpc")
	base := RunSingle(w, nil, cfg)
	r := RunSingle(w, tpc.Factory, cfg)
	if len(base.MissL1Lines.Lines) == 0 {
		t.Error("baseline footprint empty")
	}
	if len(r.Attempted.Lines) == 0 || len(r.IssuedLines.Lines) == 0 {
		t.Error("prefetch footprint empty")
	}
	// Every footprint is frozen into strictly ascending, exact-size columns.
	for _, f := range []Footprint{r.MissL1Lines, r.MissL2Lines, r.Attempted, r.IssuedLines} {
		if len(f.Vals) != len(f.Lines) || cap(f.Lines) != len(f.Lines) || cap(f.Vals) != len(f.Vals) {
			t.Errorf("footprint columns not exact-size: %d/%d lines, %d/%d values", len(f.Lines), cap(f.Lines), len(f.Vals), cap(f.Vals))
		}
		for i := 1; i < len(f.Lines); i++ {
			if f.Lines[i] <= f.Lines[i-1] {
				t.Fatalf("footprint line %d follows %d", f.Lines[i], f.Lines[i-1])
			}
		}
	}
	// Attempted lines carry owner slots from the name table.
	for _, mask := range r.Attempted.Vals {
		if mask == 0 {
			t.Fatal("attempted mask empty")
		}
	}
	// Per-line issue counts never exceed the aggregate.
	var sum uint64
	for _, n := range r.IssuedLines.Vals {
		sum += uint64(n)
	}
	if sum != r.Issued {
		t.Errorf("IssuedLines sum %d != Issued %d", sum, r.Issued)
	}
}

func TestPerOwnerAttribution(t *testing.T) {
	w, _ := workloads.ByName("mix.phases")
	cfg := DefaultConfig(120_000)
	tpc, _ := ByName("tpc")
	r := RunSingle(w, tpc.Factory, cfg)
	perOwner := r.PerOwner()
	if len(perOwner) < 2 {
		t.Fatalf("expected multiple components to issue, got %v (names %v)", perOwner, r.Names)
	}
	var sum uint64
	for _, n := range perOwner {
		sum += n
	}
	if sum != r.Issued {
		t.Errorf("per-owner sum %d != issued %d", sum, r.Issued)
	}
}

func TestMPKIAndIPC(t *testing.T) {
	w, _ := workloads.ByName("resident.l2")
	r := RunSingle(w, nil, DefaultConfig(30_000))
	if r.IPC() <= 0 || r.MPKI() < 0 {
		t.Errorf("IPC=%v MPKI=%v", r.IPC(), r.MPKI())
	}
}

// TestBranchPredictorMode: with the real predictor, the fixed-trip loop
// exits that the flag mode charges as mispredicts are learned by the loop
// predictor, so total mispredicts must not increase.
func TestBranchPredictorMode(t *testing.T) {
	w, _ := workloads.ByName("stream.pure")
	cfg := DefaultConfig(100_000)
	flagMode := RunSingle(w, nil, cfg)
	cfg.UseBPred = true
	predMode := RunSingle(w, nil, cfg)
	if predMode.Core.Mispredicts > flagMode.Core.Mispredicts {
		t.Errorf("predictor mode mispredicted more (%d) than flag mode (%d)",
			predMode.Core.Mispredicts, flagMode.Core.Mispredicts)
	}
	if predMode.Core.Insts != cfg.Insts {
		t.Error("run truncated")
	}
}

// TestRunTraceMatchesRunSingle: a workload captured to a trace file (with
// the pointer words P1 dereferences) and replayed through RunTrace must
// simulate exactly as the live workload does through RunSingle. Category
// counters are left out: trace files carry no ground truth, so trace mode
// classifies every line as HHF.
func TestRunTraceMatchesRunSingle(t *testing.T) {
	const n = 30_000
	cfg := DefaultConfig(n)
	type view struct {
		Core                                          cpu.Result
		L1Stats, L2Stats                              cache.Stats
		DRAM                                          dram.Stats
		Traffic, Issued, Filtered, L1Misses, L2Misses uint64
	}
	project := func(r *Result) view {
		return view{r.Core, r.L1Stats, r.L2Stats, r.DRAM, r.Traffic, r.Issued, r.Filtered, r.L1Misses, r.L2Misses}
	}
	for _, name := range []string{"stream.pure", "chase.rand", "aop.rand", "mix.phases"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		inst := w.New(cfg.Seed)
		var words map[uint64]uint64
		switch m := inst.Memory().(type) {
		case *vmem.Sparse:
			words = m.Words()
		case vmem.Empty:
		default:
			t.Fatalf("%s: memory %T has no word list to capture", name, m)
		}
		var buf bytes.Buffer
		if wrote, err := trace.WriteTrace(&buf, inst, words, n); err != nil || wrote != n {
			t.Fatalf("%s: WriteTrace wrote %d of %d: %v", name, wrote, n, err)
		}
		ft, err := trace.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", name, err)
		}
		for _, spec := range []string{"none", "bop", "stride", "ghb", "tpc"} {
			p, err := ByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := project(RunSingle(w, p.Factory, cfg))
			if got := project(RunTrace(ft, p.Factory, cfg)); got != want {
				t.Errorf("%s/%s: trace replay diverged from the live run\ntrace: %+v\nlive:  %+v", name, spec, got, want)
			}
		}
	}
}
