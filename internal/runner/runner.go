// Package runner is the parallel experiment engine: a worker-pool executor
// that fans out independent simulations across GOMAXPROCS goroutines behind
// one entry point — Engine.Run(ctx, jobs) — plus a two-tier result cache.
// The in-process memo tier guarantees the same (workload, prefetcher,
// config) point is simulated once, or answered from its twin, per process
// no matter how many experiments ask for it. A twin is a memoized key whose
// results are the point's own exactly (see twins): the same run with
// footprints collected, or under the other of two drop policies the DRAM
// controller treats alike. An optional persistent tier (SetStore) extends
// that guarantee across processes, answering repeat points from disk by
// their Key.Digest content address. Every simulation is a pure function of
// its key — workload instances and per-run state are built fresh inside sim,
// and each worker runs its jobs on its own sim.Machine, whose memory system
// is reset to its freshly built state before every run — so results are
// shared by pointer and must be treated as read-only by consumers (the
// metrics layer already is); that same purity is what makes a persisted
// result byte-equivalent to a fresh simulation.
//
// Determinism: batch results are returned in job order regardless of
// completion order, and each run's randomness is derived from its seed, so a
// report generated through the engine is byte-identical to the serial path
// at any worker count.
package runner

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/obs"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// EnvWorkers is the environment variable consulted for the default worker
// count (cmd flags and WithWorkers take precedence).
const EnvWorkers = "TPCSIM_WORKERS"

// coreKey is the comparable subset of cpu.Params. The Pred field is an
// interface and cannot be keyed; configs that install a predictor directly
// (rather than via Config.UseBPred) are treated as uncacheable.
type coreKey struct {
	Width          int
	ROB            int
	FrontendDepth  uint64
	MispredPenalty uint64
	StorePorts     bool
}

// Key identifies one deterministic simulation for memoization. Prefetcher
// identity is the registry name: callers that invent factories (sweeps,
// ablation variants) must give each distinct configuration a distinct name.
type Key struct {
	Workload   string // workload name, or mix name for multicore runs
	Prefetcher string
	Multi      bool
	Seed       uint64
	Insts      uint64
	Cores      int
	Drop       dram.DropPolicy
	Footprint  bool
	UseBPred   bool
	// Trace marks lifecycle-traced runs: they are deterministic and
	// cacheable, but must not share results with untraced runs (their
	// Result carries the extra counters).
	Trace   bool
	DestTag string // names a DestOverride policy; "" means none
	Params  coreKey
}

// entry is one cache slot. The first claimant fills it (from the store, a
// twin or a simulation) and closes done; later claimants block on done and
// read the filled results.
type entry struct {
	done chan struct{}
	rs   []*sim.Result
}

// Engine runs simulation jobs on a bounded worker pool with a memoized run
// cache. The zero value is not usable; construct with New.
type Engine struct {
	workers atomic.Int64

	mu    sync.Mutex
	cache map[Key]*entry
	// store, when non-nil, is the persistent tier below the in-process
	// cache (read-through on miss, write-behind after simulation); see
	// store.go for the full contract.
	store store.Store

	// recs memoizes pre-generated instruction buffers per (workload, seed,
	// budget): the matrix simulates each workload once per prefetcher
	// column, and generation is ~a tenth of a run, so the first column
	// records the stream and the rest replay it (byte-identical — see
	// sim.Record). recBytes bounds the memory spent on recordings; points
	// over budget fall back to live generation, which changes nothing
	// observable.
	recMu    sync.Mutex
	recs     map[recKey]*recEntry
	recBytes int64

	hits    atomic.Uint64
	misses  atomic.Uint64
	skips   atomic.Uint64 // uncacheable runs
	derived atomic.Uint64 // jobs answered from a twin's results

	storeHits atomic.Uint64
	storePuts atomic.Uint64
	storeErrs atomic.Uint64

	// progress, when set, is notified after every job (CLI reporting).
	progress atomic.Pointer[obs.Progress]

	// machines is the free list of idle simulation machines. Each worker
	// takes one for the length of a batch and puts it back after, so a
	// Machine's memory systems are built once and reused across the jobs
	// it simulates, and die with the engine. New builds none: a Machine
	// builds its systems on first use.
	machMu   sync.Mutex
	machines []*sim.Machine
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the pool at n goroutines (n <= 0 keeps the default).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers.Store(int64(n))
		}
	}
}

// New builds an engine. The default worker count is TPCSIM_WORKERS when set,
// otherwise GOMAXPROCS.
func New(opts ...Option) *Engine {
	e := &Engine{cache: make(map[Key]*entry)}
	w := runtime.GOMAXPROCS(0)
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			w = n
		}
	}
	e.workers.Store(int64(w))
	for _, o := range opts {
		o(e)
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine. Sharing it across
// experiments is what lets the no-prefetch baseline be simulated once per
// configuration instead of once per experiment.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New() })
	return defaultEngine
}

// Workers reports the current pool bound.
func (e *Engine) Workers() int { return int(e.workers.Load()) }

// SetWorkers rebounds the pool (n <= 0 is ignored). Safe to call
// concurrently; in-flight batches keep their launch-time bound.
func (e *Engine) SetWorkers(n int) {
	if n > 0 {
		e.workers.Store(int64(n))
	}
}

// SetProgress installs (or, with nil, removes) a live progress counter that
// is ticked after every completed job. Safe to call concurrently.
func (e *Engine) SetProgress(p *obs.Progress) { e.progress.Store(p) }

// jobDone ticks the progress counter, if one is installed.
func (e *Engine) jobDone(hit bool) {
	if p := e.progress.Load(); p != nil {
		p.JobDone(hit)
	}
}

// Stats reports cache hits and misses (a miss is an executed simulation;
// uncacheable runs count as misses).
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load() + e.skips.Load()
}

// HitRate returns hits / (hits + misses), or 0 before any job ran.
func (e *Engine) HitRate() float64 {
	h, m := e.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Job is one simulation request: a single-core run of Workload, or — when
// Mix is set — a multicore run of the 4-app mix. Mix and Workload are
// mutually exclusive; a set Mix wins.
type Job struct {
	Workload workloads.Workload
	// Mix, when set (non-empty name or apps), makes this a multicore job;
	// Workload is then ignored. The mix name is the cache identity, so
	// caller-built mixes must be named.
	Mix        workloads.Mix
	Prefetcher sim.Named
	Config     sim.Config
	// DestTag names Config.DestOverride for the cache key. Jobs with an
	// override and no tag bypass the cache (a func cannot be keyed).
	DestTag string
}

// isMix reports whether the job is a multicore mix run.
func (j Job) isMix() bool {
	if j.Mix.Name != "" {
		return true
	}
	for _, app := range j.Mix.Apps {
		if app.Name != "" || app.New != nil {
			return true
		}
	}
	return false
}

// Results reports how many results the job contributes to Engine.Run's
// flattened output: 1 for a single-core job, the (normalized) core count for
// a mix.
func (j Job) Results() int {
	if !j.isMix() {
		return 1
	}
	return normalize(j.Config, true).Cores
}

// normalize applies sim's own defaulting so equivalent configs share a key.
func normalize(cfg sim.Config, multi bool) sim.Config {
	if multi {
		if cfg.Cores <= 0 || cfg.Cores > 4 {
			cfg.Cores = 4
		}
	} else if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.CoreParams.Width == 0 {
		cfg.CoreParams = cpu.DefaultParams()
	}
	return cfg
}

// keyFor builds the memo key; ok is false when the config is uncacheable
// (unnamed DestOverride or a directly-installed branch predictor).
func keyFor(workload, pf string, multi bool, cfg sim.Config, destTag string) (Key, bool) {
	if cfg.DestOverride != nil && destTag == "" {
		return Key{}, false
	}
	if cfg.CoreParams.Pred != nil {
		return Key{}, false
	}
	if cfg.TraceSink != nil {
		// A live event sink is a side effect; replaying it from the cache
		// would silently emit nothing.
		return Key{}, false
	}
	p := cfg.CoreParams
	return Key{
		Workload:   workload,
		Prefetcher: pf,
		Multi:      multi,
		Seed:       cfg.Seed,
		Insts:      cfg.Insts,
		Cores:      cfg.Cores,
		Drop:       cfg.DropPolicy,
		Footprint:  cfg.CollectFootprint,
		UseBPred:   cfg.UseBPred,
		Trace:      cfg.TraceLifecycle,
		DestTag:    destTag,
		Params: coreKey{
			Width:          p.Width,
			ROB:            p.ROB,
			FrontendDepth:  p.FrontendDepth,
			MispredPenalty: p.MispredPenalty,
			StorePorts:     p.StorePorts,
		},
	}, true
}

// recKey identifies one pre-recorded instruction stream.
type recKey struct {
	Workload string
	Seed     uint64
	Insts    uint64
}

// recEntry is one recording slot (claim pattern as for results). rec stays
// nil when the budget was exhausted; waiters then generate live.
type recEntry struct {
	done chan struct{}
	rec  *sim.Recorded
}

// Recording budget: a generous bound on total buffered instructions so an
// unbounded sweep cannot hold every stream it ever simulated. A recorded
// instruction is one trace.Inst.
const (
	recInstBytes   = int64(unsafe.Sizeof(trace.Inst{}))
	recBudgetBytes = 384 << 20
)

// instanceFor returns a replay cursor for (w, seed, insts), recording the
// stream on first use, or nil (meaning: build live) when recording is over
// budget. Results are identical either way; only generation cost differs.
func (e *Engine) instanceFor(w workloads.Workload, seed, insts uint64) workloads.Instance {
	k := recKey{Workload: w.Name, Seed: seed, Insts: insts}
	e.recMu.Lock()
	ent, ok := e.recs[k]
	if !ok {
		ent = &recEntry{done: make(chan struct{})}
		if e.recs == nil {
			e.recs = make(map[recKey]*recEntry)
		}
		e.recs[k] = ent
		overBudget := e.recBytes+int64(insts)*recInstBytes > recBudgetBytes
		if !overBudget {
			e.recBytes += int64(insts) * recInstBytes
		}
		e.recMu.Unlock()
		if !overBudget {
			ent.rec = sim.Record(w, seed, insts)
		}
		close(ent.done)
	} else {
		e.recMu.Unlock()
		<-ent.done
	}
	if ent.rec == nil {
		return nil
	}
	return ent.rec.Instance()
}

// claim returns the cache entry for k and whether the caller owns it (owner
// must simulate, fill the entry and close done).
func (e *Engine) claim(k Key) (ent *entry, owner bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.cache[k]; ok {
		return ent, false
	}
	ent = &entry{done: make(chan struct{})}
	e.cache[k] = ent
	return ent, true
}

// twins lists, best first, the keys whose results are k's own exactly. Two
// key fields can differ between twins:
//   - Footprint. A footprint run's accumulator is only written while it
//     simulates, so its results are the footprint-free run's plus the four
//     per-line columns (see derive).
//   - Drop, between dram.DropNone and dram.DropRandomPrefetch, which the
//     DRAM controller treats alike (see dram.DropNone).
//
// Every twin collects footprints where k does not, or has DropNone where k
// has DropRandomPrefetch. So a key that collects footprints under any other
// policy than DropRandomPrefetch has no twins, and waiting on a twin never
// closes a cycle.
func twins(k Key) []Key {
	var out []Key
	if !k.Footprint {
		t := k
		t.Footprint = true
		out = append(out, t)
	}
	if k.Drop == dram.DropRandomPrefetch {
		t := k
		t.Drop = dram.DropNone
		out = append(out, t)
		if !k.Footprint {
			t.Footprint = true
			out = append(out, t)
		}
	}
	return out
}

// fromTwin answers k from the first of its twins that is memoized, waiting
// for it if it is still being simulated (its owner never waits on k; see
// twins). It reports false when no twin has results.
func (e *Engine) fromTwin(k Key) ([]*sim.Result, bool) {
	for _, t := range twins(k) {
		e.mu.Lock()
		ent, ok := e.cache[t]
		e.mu.Unlock()
		if !ok {
			continue
		}
		<-ent.done
		if ent.rs != nil {
			return derive(ent.rs, k.Footprint), true
		}
	}
	return nil, false
}

// derive returns shallow copies of a twin's results, with the footprint
// columns zeroed unless footprint is set, as a run that does not collect
// them leaves them. The copies share the twin's read-only slices and maps.
func derive(rs []*sim.Result, footprint bool) []*sim.Result {
	out := make([]*sim.Result, len(rs))
	for i, r := range rs {
		c := *r
		if !footprint {
			c.MissL1Lines, c.MissL2Lines = sim.Footprint{}, sim.Footprint{}
			c.Attempted, c.IssuedLines = sim.Footprint{}, sim.Footprint{}
		}
		out[i] = &c
	}
	return out
}

// runJob executes one job through the cache tiers — memo, then store, then
// twin, then simulation — and returns its Job.Results() results. The slice
// and its results are shared — read-only. The store comes before the twin,
// so a warm store answers every key it holds, and derived results are put
// to the store as simulated ones are, so every stored key stands alone.
func (e *Engine) runJob(m *sim.Machine, j Job) []*sim.Result {
	k, cacheable := KeyOf(j)
	if !cacheable {
		e.skips.Add(1)
		rs := e.simulate(m, j)
		e.jobDone(false)
		return rs
	}
	ent, owner := e.claim(k)
	if !owner {
		e.hits.Add(1)
		<-ent.done
		e.jobDone(true)
		return ent.rs
	}
	if rs, ok := e.storeGet(k, j.Results()); ok {
		ent.rs = rs
		close(ent.done)
		e.jobDone(true)
		return ent.rs
	}
	if rs, ok := e.fromTwin(k); ok {
		e.derived.Add(1)
		ent.rs = rs
		close(ent.done)
		e.storePut(k, ent.rs)
		e.jobDone(true)
		return ent.rs
	}
	e.misses.Add(1)
	func() {
		// done must close even if the simulation panics, or waiters hang.
		defer close(ent.done)
		ent.rs = e.simulate(m, j)
	}()
	e.storePut(k, ent.rs)
	e.jobDone(false)
	return ent.rs
}

// simulate runs j on m over replays of its pre-recorded streams (live
// instances where recording is over budget; RunSingleOn/RunMultiOn build
// those).
func (e *Engine) simulate(m *sim.Machine, j Job) []*sim.Result {
	f := j.Prefetcher.Factory
	if !j.isMix() {
		cfg := normalize(j.Config, false)
		inst := e.instanceFor(j.Workload, cfg.Seed, cfg.Insts)
		return []*sim.Result{m.RunSingleOn(inst, j.Workload, f, cfg)}
	}
	cfg := normalize(j.Config, true)
	insts := make([]workloads.Instance, len(j.Mix.Apps))
	for i, app := range j.Mix.Apps {
		insts[i] = e.instanceFor(app, sim.MixSeed(cfg, i), cfg.Insts)
	}
	return m.RunMultiOn(insts, j.Mix, f, cfg)
}

// Run executes the jobs on the worker pool and returns results flattened in
// job order: each job contributes Job.Results() consecutive slots (1 for a
// single-core job, one per core for a mix). Duplicate keys within a batch
// simulate once; results are deterministic at any worker count.
//
// ctx cancels the remainder of the batch: jobs not yet dispatched when ctx
// is done are skipped and leave nil results (in-flight simulations run to
// completion, so the cache never holds a partial entry). A nil ctx means
// never cancel.
func (e *Engine) Run(ctx context.Context, jobs []Job) []*sim.Result {
	offs := make([]int, len(jobs)+1)
	for i, j := range jobs {
		offs[i+1] = offs[i] + j.Results()
	}
	out := make([]*sim.Result, offs[len(jobs)])
	e.forEach(len(jobs), func(m *sim.Machine, i int) {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		copy(out[offs[i]:offs[i+1]], e.runJob(m, jobs[i]))
	})
	return out
}

// forEach applies f to 0..n-1 on the worker pool, each worker passing f its
// own Machine. A worker that blocks on a cache entry owned by another worker
// makes progress as soon as the owner finishes; owners never wait, so the
// pool cannot deadlock.
func (e *Engine) forEach(n int, f func(*sim.Machine, int)) {
	w := e.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		m := e.takeMachine()
		defer e.putMachine(m)
		for i := 0; i < n; i++ {
			f(m, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			m := e.takeMachine()
			defer e.putMachine(m)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(m, i)
			}
		}()
	}
	wg.Wait()
}

// takeMachine pops an idle Machine off the free list, or returns a new one.
func (e *Engine) takeMachine() *sim.Machine {
	e.machMu.Lock()
	defer e.machMu.Unlock()
	n := len(e.machines)
	if n == 0 {
		return new(sim.Machine)
	}
	m := e.machines[n-1]
	e.machines = e.machines[:n-1]
	return m
}

// putMachine returns a worker's Machine to the free list.
func (e *Engine) putMachine(m *sim.Machine) {
	e.machMu.Lock()
	defer e.machMu.Unlock()
	e.machines = append(e.machines, m)
}
