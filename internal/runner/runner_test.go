package runner

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"divlab/internal/cache"
	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

func testJob(t *testing.T, workload, pf string, insts uint64) Job {
	t.Helper()
	w, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	p, err := sim.ByName(pf)
	if err != nil {
		t.Fatal(err)
	}
	return Job{Workload: w, Prefetcher: p, Config: sim.DefaultConfig(insts)}
}

// runOne runs one single-core job through Engine.Run.
func runOne(e *Engine, j Job) *sim.Result {
	return e.Run(context.Background(), []Job{j})[0]
}

func TestSingleMemoizes(t *testing.T) {
	e := New(WithWorkers(2))
	j := testJob(t, "stream.pure", "tpc", 20_000)
	a := runOne(e, j)
	b := runOne(e, j)
	if a != b {
		t.Error("same key must return the cached result pointer")
	}
	hits, misses := e.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if e.HitRate() != 0.5 {
		t.Errorf("hit rate %.2f, want 0.50", e.HitRate())
	}
}

func TestDistinctKeysDistinctRuns(t *testing.T) {
	e := New(WithWorkers(1))
	a := testJob(t, "stream.pure", "tpc", 20_000)
	b := a
	b.Config.Seed = 2
	c := a
	c.Config.CollectFootprint = true
	if runOne(e, a) == runOne(e, b) || runOne(e, a) == runOne(e, c) {
		t.Error("different seed/footprint must not share cache slots")
	}
	if hits, misses := e.Stats(); misses != 3 || hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/3", hits, misses)
	}
}

func TestBatchOrderAndDedup(t *testing.T) {
	e := New(WithWorkers(4))
	names := []string{"stream.pure", "chase.seq", "region.hot"}
	var jobs []Job
	for _, n := range names {
		jobs = append(jobs, testJob(t, n, "none", 15_000), testJob(t, n, "tpc", 15_000))
	}
	// Duplicate the whole batch: the second half must dedupe onto the first.
	jobs = append(jobs, jobs...)
	res := e.Run(context.Background(), jobs)
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	for i := range res {
		if res[i] == nil {
			t.Fatalf("result %d is nil", i)
		}
		if res[i] != res[(i+6)%12] {
			t.Errorf("duplicate job %d not served from cache", i)
		}
	}
	if _, misses := e.Stats(); misses != 6 {
		t.Errorf("misses=%d, want 6 unique simulations", misses)
	}
	// Order: job i's result must equal a direct serial run.
	direct := sim.RunSingle(jobs[1].Workload, jobs[1].Prefetcher.Factory, jobs[1].Config)
	if res[1].Core.Cycles != direct.Core.Cycles || res[1].L1Misses != direct.L1Misses {
		t.Error("batch result out of order or diverged from serial run")
	}
}

// TestParallelMatchesSerial holds run isolation: a simulation is a pure
// function of its job, which the memo cache and the result store assume.
// Each prefetcher gets its own batch with one worker per job, so all of its
// simulations are in flight at once; under -race, state shared between runs
// (a package-level counter in a prefetcher or in the memory system) is
// reported, and without it, state that leaks into results shows up as
// encoded bytes that differ from a serial engine's.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{"stream.pure", "chase.rand", "mix.phases", "gups.large"}
	specs := []string{"none"}
	for _, inf := range sim.List() {
		specs = append(specs, inf.Spec)
	}
	serial := New(WithWorkers(1))
	for _, spec := range specs {
		var jobs []Job
		for _, n := range names {
			jobs = append(jobs, testJob(t, n, spec, 15_000))
		}
		want, err := sim.EncodeResults(serial.Run(context.Background(), jobs))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.EncodeResults(New(WithWorkers(len(jobs))).Run(context.Background(), jobs))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: results of %d parallel workers differ from a serial engine's", spec, len(jobs))
		}
	}
}

func TestUncacheableDestOverride(t *testing.T) {
	e := New(WithWorkers(1))
	j := testJob(t, "stream.pure", "tpc", 15_000)
	j.Config.DestOverride = func(prefetch.Request, workloads.Category) mem.Level { return mem.L2 }
	if runOne(e, j) == runOne(e, j) {
		t.Error("unnamed DestOverride must bypass the cache")
	}
	if hits, _ := e.Stats(); hits != 0 {
		t.Errorf("uncacheable runs must not count as hits, got %d", hits)
	}

	// A tagged override is cacheable.
	j.DestTag = "L2"
	if runOne(e, j) != runOne(e, j) {
		t.Error("tagged DestOverride must memoize")
	}
}

func TestMultiBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore runs are long")
	}
	e := New(WithWorkers(4))
	mix := workloads.Mixes(1, 3)[0]
	tpc, _ := sim.ByName("tpc")
	cfg := sim.DefaultConfig(15_000)
	cfg.Cores = 4
	jobs := []Job{
		{Mix: mix, Prefetcher: sim.Baseline(), Config: cfg},
		{Mix: mix, Prefetcher: tpc, Config: cfg},
		{Mix: mix, Prefetcher: sim.Baseline(), Config: cfg}, // dupe of job 0
	}
	res := e.Run(context.Background(), jobs)
	if len(res) != 12 {
		t.Fatalf("bad shape: %d results, want 3 jobs x 4 cores", len(res))
	}
	if res[0] != res[8] {
		t.Error("duplicate multi job not served from cache")
	}
	for i, r := range res[:4] {
		if r.Core.Insts != cfg.Insts {
			t.Errorf("core %d retired %d of %d", i, r.Core.Insts, cfg.Insts)
		}
		if r.DRAM.Lines() == 0 {
			t.Errorf("core %d DRAM stats empty", i)
		}
	}
}

func TestConcurrentSingleCallers(t *testing.T) {
	// Many goroutines hammering the same key must produce one simulation.
	e := New(WithWorkers(4))
	j := testJob(t, "resident.l2", "none", 10_000)
	var wg sync.WaitGroup
	results := make([]*sim.Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runOne(e, j)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers saw different results for one key")
		}
	}
	if _, misses := e.Stats(); misses != 1 {
		t.Errorf("misses=%d, want exactly 1", misses)
	}
}

func TestWorkersBound(t *testing.T) {
	e := New(WithWorkers(3))
	if e.Workers() != 3 {
		t.Errorf("Workers()=%d, want 3", e.Workers())
	}
	e.SetWorkers(0) // ignored
	if e.Workers() != 3 {
		t.Error("SetWorkers(0) must be a no-op")
	}
	e.SetWorkers(7)
	if e.Workers() != 7 {
		t.Errorf("Workers()=%d, want 7", e.Workers())
	}
	if New().Workers() < 1 {
		t.Error("default worker count must be at least 1")
	}
}

// TestTraceKeySeparation: traced and untraced runs of the same point must
// occupy distinct cache slots (the traced Result carries extra counters),
// while a live TraceSink makes the run uncacheable entirely.
func TestTraceKeySeparation(t *testing.T) {
	e := New(WithWorkers(1))
	plain := testJob(t, "stream.pure", "tpc", 20_000)
	traced := plain
	traced.Config.TraceLifecycle = true

	p, tr := runOne(e, plain), runOne(e, traced)
	if p == tr {
		t.Error("traced and untraced runs must not share a cache slot")
	}
	if p.Lifecycle != nil {
		t.Error("untraced run has lifecycle counters")
	}
	if tr.Lifecycle == nil {
		t.Error("traced run lost its lifecycle counters")
	}
	if tr2 := runOne(e, traced); tr2 != tr {
		t.Error("traced runs are deterministic and must still memoize")
	}

	sinky := traced
	sinky.Config.TraceSink = &nullSink{}
	before, _ := e.Stats()
	runOne(e, sinky)
	runOne(e, sinky)
	after, _ := e.Stats()
	if after != before {
		t.Error("runs with a live event sink must bypass the cache")
	}
}

type nullSink struct{}

func (*nullSink) Event(at uint64, owner int, fate obs.Fate, level int, lineAddr cache.Line) {}

// TestProgressTicks: an installed progress counter sees every job, split
// into cache hits and executed simulations, on both cacheable and
// uncacheable paths.
func TestProgressTicks(t *testing.T) {
	e := New(WithWorkers(2))
	p := obs.NewProgress()
	e.SetProgress(p)

	j := testJob(t, "stream.pure", "tpc", 20_000)
	runOne(e, j)
	runOne(e, j) // cache hit
	un := j
	un.Config.TraceSink = &nullSink{} // uncacheable
	runOne(e, un)

	jobs, hits, sims, _ := p.Snapshot()
	if jobs != 3 || hits != 1 || sims != 2 {
		t.Errorf("progress jobs=%d hits=%d sims=%d, want 3/1/2", jobs, hits, sims)
	}
	e.SetProgress(nil)
	runOne(e, j)
	if got, _, _, _ := p.Snapshot(); got != 3 {
		t.Error("removed progress counter still ticking")
	}
}
