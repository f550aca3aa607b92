package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"divlab/internal/dram"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// machineJob is one run of TestMachineMatchesFreshRuns' sequence.
type machineJob struct {
	workload   string // single-core workload, or "" for the mix
	prefetcher string // "" for the no-prefetch baseline
	seed       uint64
	drop       dram.DropPolicy
	footprint  bool
	trace      bool
}

func (j machineJob) String() string {
	w := j.workload
	if w == "" {
		w = "mix"
	}
	return fmt.Sprintf("%s/%s/seed%d/drop%d/fp=%v/trace=%v", w, j.prefetcher, j.seed, j.drop, j.footprint, j.trace)
}

// run runs j on m, or on a fresh Machine when m is nil.
func (j machineJob) run(t *testing.T, m *sim.Machine) []*sim.Result {
	t.Helper()
	var f sim.Factory
	if j.prefetcher != "" {
		p, err := sim.ByName(j.prefetcher)
		if err != nil {
			t.Fatal(err)
		}
		f = p.Factory
	}
	cfg := sim.DefaultConfig(30_000)
	cfg.Seed, cfg.DropPolicy, cfg.CollectFootprint, cfg.TraceLifecycle = j.seed, j.drop, j.footprint, j.trace
	if j.workload == "" {
		cfg.Insts = 12_000
		mix := workloads.Mixes(1, j.seed)[0]
		if m == nil {
			return sim.RunMultiOn(nil, mix, f, cfg)
		}
		return m.RunMultiOn(nil, mix, f, cfg)
	}
	w, ok := workloads.ByName(j.workload)
	if !ok {
		t.Fatalf("unknown workload %q", j.workload)
	}
	if m == nil {
		return []*sim.Result{sim.RunSingleOn(nil, w, f, cfg)}
	}
	return []*sim.Result{m.RunSingleOn(nil, w, f, cfg)}
}

// TestMachineMatchesFreshRuns runs one sequence of jobs on one Machine and
// each job again on a fresh Machine, and requires equal encoded results. The
// sequence switches core count, drop policy, seed, footprints and lifecycle
// tracing between neighbours, so any state a reset missed (the DRAM random
// stream, a footprint map, the shared L3, a hierarchy's tracker) shows in a
// later job. A traced job's Lifecycle must also survive the untraced jobs
// after it unchanged.
func TestMachineMatchesFreshRuns(t *testing.T) {
	jobs := []machineJob{
		{"stream.pure", "tpc", 1, dram.DropNone, true, true},
		{"stream.pure", "tpc", 1, dram.DropNone, false, false},
		{"gups.large", "nextline", 2, dram.DropRandomPrefetch, true, false},
		{"", "tpc", 1, dram.DropLowPriorityPrefetch, true, true},
		{"", "spp", 2, dram.DropRandomPrefetch, false, false},
		{"gups.large", "nextline", 1, dram.DropLowPriorityPrefetch, false, false},
		{"chase.rand", "sms", 2, dram.DropNone, true, false},
		{"", "", 1, dram.DropNone, true, false},
		{"mix.phases", "bop", 1, dram.DropRandomPrefetch, true, true},
		{"stream.pure", "tpc", 2, dram.DropLowPriorityPrefetch, true, false},
	}
	m := new(sim.Machine)
	reused := make([][]*sim.Result, len(jobs))
	fresh := make([][]*sim.Result, len(jobs))
	var dropped uint64
	for i, j := range jobs {
		reused[i] = j.run(t, m)
		fresh[i] = j.run(t, nil)
		if got, want := encodeUntraced(t, reused[i]), encodeUntraced(t, fresh[i]); !bytes.Equal(got, want) {
			t.Errorf("job %d (%v): reused Machine's results differ from a fresh run's", i, j)
		}
		dropped += fresh[i][0].Dropped
	}
	if dropped == 0 {
		t.Error("no job dropped a prefetch at DRAM; the sequence does not reach the random drop stream")
	}
	for i, j := range jobs {
		for c := range fresh[i] {
			if got, want := reused[i][c].Lifecycle, fresh[i][c].Lifecycle; (want != nil) != j.trace || !reflect.DeepEqual(got, want) {
				t.Errorf("job %d (%v) core %d: Lifecycle after the sequence differs from a fresh run's", i, j, c)
			}
		}
	}
}

// encodeUntraced returns rs's EncodeResults bytes, which leave out the
// Lifecycle the encoder refuses.
func encodeUntraced(t *testing.T, rs []*sim.Result) []byte {
	t.Helper()
	plain := make([]*sim.Result, len(rs))
	for i, r := range rs {
		c := *r
		c.Lifecycle = nil
		plain[i] = &c
	}
	b, err := sim.EncodeResults(plain)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allocBytes returns the bytes f allocates, as a runtime.MemStats.TotalAlloc
// delta.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMachineReuseAllocates holds a 100k-instruction stream.pure run under
// tpc on a reused Machine to at most an eighth of the bytes the same run
// allocates on a fresh one: a reused Machine builds no memory system.
func TestMachineReuseAllocates(t *testing.T) {
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("workload stream.pure not registered")
	}
	tpc, err := sim.ByName("tpc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(100_000)
	rec := sim.Record(w, cfg.Seed, cfg.Insts)
	m := new(sim.Machine)
	m.RunSingleOn(rec.Instance(), w, tpc.Factory, cfg)
	fresh := allocBytes(func() { sim.RunSingleOn(rec.Instance(), w, tpc.Factory, cfg) })
	reused := allocBytes(func() { m.RunSingleOn(rec.Instance(), w, tpc.Factory, cfg) })
	if reused*8 > fresh {
		t.Fatalf("a run on a reused Machine allocates %d B, more than 1/8 of a fresh run's %d B", reused, fresh)
	}
	t.Logf("reused Machine %d B, fresh %d B per run", reused, fresh)
}
