// Package sim wires the substrates together: a workload instance feeds the
// analytical core, whose memory accesses flow through the hierarchy; every
// demand event trains the prefetcher under test, and every prefetch request
// is issued back into the hierarchy with its component identity. The runner
// produces the per-run measurements (misses, traffic, footprints, prefetch
// attempts by category and owner) that the metrics layer turns into the
// paper's scope / effective-accuracy / coverage numbers.
package sim

import (
	"divlab/internal/bpred"
	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/prefetch"
	"divlab/internal/trace"
	"divlab/internal/vmem"
	"divlab/internal/workloads"
)

// Config parameterizes a run.
type Config struct {
	// Insts is the instruction budget per core.
	Insts uint64
	// Cores is the number of cores (1 or 4 in the paper's experiments).
	Cores int
	// Seed drives workload layout and the DRAM drop policy.
	Seed uint64
	// DropPolicy selects the memory controller's overflow behaviour.
	DropPolicy dram.DropPolicy
	// CollectFootprint enables the per-line miss and prefetch footprints
	// needed for scope metrics (costs memory; off for plain speedup runs).
	CollectFootprint bool
	// DestOverride, when non-nil, remaps each prefetch's destination based
	// on the target's ground-truth category (the Fig. 16 oracle study).
	DestOverride func(req prefetch.Request, cat workloads.Category) mem.Level
	// CoreParams defaults to cpu.DefaultParams() when zero.
	CoreParams cpu.Params
	// UseBPred replaces the workloads' mispredict flags with the Table I
	// TAGE + loop predictor (each core gets its own instance).
	UseBPred bool
	// TraceLifecycle attaches a ground-truth prefetch-lifecycle tracker to
	// each core's hierarchy (Result.Lifecycle). Off by default: the hot path
	// then pays only a nil check per event.
	TraceLifecycle bool
	// TraceSink, when non-nil (requires TraceLifecycle), receives the raw
	// lifecycle event stream as it happens (-trace dumps).
	TraceSink obs.EventSink
}

// DefaultConfig returns a single-core run of n instructions.
func DefaultConfig(n uint64) Config {
	return Config{Insts: n, Cores: 1, Seed: 1, CoreParams: cpu.DefaultParams()}
}

// Factory builds the prefetcher for a given workload instance (components
// like P1 need the instance's value memory).
type Factory func(inst workloads.Instance) prefetch.Component

// Result captures everything measured in one core's run.
type Result struct {
	Core cpu.Result

	L1Misses    uint64 // primary L1D misses
	L1Secondary uint64
	L2Misses    uint64
	Traffic     uint64 // memory-bus lines (reads + writebacks)

	Issued   uint64 // prefetches that caused a fetch
	Filtered uint64
	Dropped  uint64
	// IssuedDest splits Issued by destination level (L1/L2/L3).
	IssuedDest [3]uint64

	// perOwner counts issued prefetches per component, indexed by the
	// already-contiguous component id (prefetch.AssignIDs starts at 1;
	// index 0 is unused). Dense slices keep the per-issue accounting off
	// the heap; the map-shaped views live behind PerOwner/PerOwnerCat.
	perOwner []uint64
	// CatIssued counts issued prefetches by ground-truth category.
	CatIssued [workloads.NumCategories]uint64
	// CatIssuedL1 counts only L1-destined issues by category, so accuracy
	// can be judged at each prefetch's own destination level.
	CatIssuedL1 [workloads.NumCategories]uint64
	// perOwnerCat counts issued prefetches per component per ground-truth
	// category, indexed like perOwner.
	perOwnerCat [][workloads.NumCategories]uint64
	// CatL1Misses counts primary L1 misses by category.
	CatL1Misses [workloads.NumCategories]uint64
	// CatL2Misses counts primary L2 misses by category.
	CatL2Misses [workloads.NumCategories]uint64

	// MissL1Lines / MissL2Lines are per-line primary miss counts
	// (CollectFootprint only).
	MissL1Lines Footprint
	MissL2Lines Footprint
	// Attempted is the prefetch footprint: each line's bitmask of the
	// component slots that attempted it (CollectFootprint only).
	Attempted Footprint
	// IssuedLines is the post-filter per-line issued prefetch count
	// (CollectFootprint only), used for region-restricted accuracy.
	IssuedLines Footprint
	// ownerSlots maps component id (dense index) -> bit position in
	// Attempted masks; see OwnerSlots for the map-shaped view.
	ownerSlots []uint8
	// Names maps component id -> component name.
	Names map[int]string

	// L1Stats / L2Stats expose the raw cache counters.
	L1Stats cache.Stats
	L2Stats cache.Stats
	// DRAM exposes the memory controller counters (system-wide).
	DRAM dram.Stats

	// Lifecycle holds the ground-truth prefetch fate counters
	// (Config.TraceLifecycle only; nil otherwise). Closed at end of run:
	// every occurrence has a terminal fate and the conservation laws hold.
	Lifecycle *obs.Lifecycle
}

// IPC returns the run's instructions per cycle.
func (r *Result) IPC() float64 { return r.Core.IPC() }

// PerOwner returns the issued prefetch count per component id — the
// map-shaped view of the dense per-owner counters, built on demand for
// report and test consumers (ids that never issued are omitted, matching
// the historical map-based accounting).
func (r *Result) PerOwner() map[int]uint64 {
	m := make(map[int]uint64, len(r.perOwner))
	for id, n := range r.perOwner {
		if n != 0 {
			m[id] = n
		}
	}
	return m
}

// PerOwnerIssued returns the issued prefetch count for one component id.
func (r *Result) PerOwnerIssued(id int) uint64 {
	if id < 0 || id >= len(r.perOwner) {
		return 0
	}
	return r.perOwner[id]
}

// PerOwnerCat returns per-component per-category issued counts, map-shaped
// (ids with no issues are omitted, matching the historical map accounting).
func (r *Result) PerOwnerCat() map[int][workloads.NumCategories]uint64 {
	m := make(map[int][workloads.NumCategories]uint64, len(r.perOwnerCat))
	for id, c := range r.perOwnerCat {
		if c != ([workloads.NumCategories]uint64{}) {
			m[id] = c
		}
	}
	return m
}

// OwnerSlots returns component id -> bit position in Attempted masks,
// map-shaped for footprint consumers.
func (r *Result) OwnerSlots() map[int]uint {
	m := make(map[int]uint, len(r.Names))
	for id := range r.ownerSlots {
		if _, ok := r.Names[id]; ok {
			m[id] = uint(r.ownerSlots[id])
		}
	}
	return m
}

// MPKI returns primary L1 misses per kilo-instruction.
func (r *Result) MPKI() float64 {
	if r.Core.Insts == 0 {
		return 0
	}
	return float64(r.L1Misses) * 1000 / float64(r.Core.Insts)
}

// debugInstWindow, when nonzero (tests only), overrides the core's
// instruction-window cap so the fuzz tests can vary batch boundaries.
var debugInstWindow int

// runner binds one core's pieces together.
type runner struct {
	cfg    Config
	inst   workloads.Instance
	hier   *mem.Hierarchy
	pf     prefetch.Component
	pfInst prefetch.InstObserver
	// pfBatch / pfInstB are the native batch views of pf, nil when the
	// component is scalar-only (delivery then goes through the adapter).
	pfBatch prefetch.BatchComponent
	pfInstB prefetch.BatchInstObserver
	res     *Result
	// fp accumulates the per-line footprints (Config.CollectFootprint only;
	// nil otherwise, so the hot path pays one nil check per site).
	fp *footprints
	// evs is the reusable demand-event buffer handed to OnAccess (as a
	// length-1 batch); taking the address of a stack copy would force a heap
	// escape per access.
	evs [1]mem.Event
	// sink collects every component request with its per-event issue cycle;
	// drainSink applies them. Fixed-capacity, embedded: the whole dispatch
	// path allocates nothing after the runner itself.
	sink prefetch.Sink
	// catLine/catMemo memoize the last Classify verdict: classification is a
	// pure function of the line, and successive accesses overwhelmingly land
	// on the same one.
	catLine cache.Line
	catMemo workloads.Category
	catOK   bool
}

func newRunner(cfg Config, inst workloads.Instance, hier *mem.Hierarchy, fp *footprints, pf prefetch.Component, res *Result) *runner {
	r := &runner{cfg: cfg, inst: inst, hier: hier, pf: pf, res: res, fp: fp}
	r.sink.Init(r)
	r.pfInst, _ = pf.(prefetch.InstObserver)
	r.pfBatch, _ = pf.(prefetch.BatchComponent)
	r.pfInstB, _ = pf.(prefetch.BatchInstObserver)
	return r
}

// Access implements cpu.MemPort. The demand event is delivered as a
// length-1 batch: issued prefetches mutate hierarchy state the very next
// access observes, so an access window can never be extended past the next
// demand access without changing results — the profitable window is the
// instruction stream (OnInstWindow), where runs between memory operations
// carry no hierarchy reads.
func (r *runner) Access(pc, addr uint64, at uint64, store bool) uint64 {
	ev := &r.evs[0]
	lat := r.hier.AccessInto(pc, addr, at, store, ev)
	res := r.res
	cat := r.catMemo
	if !r.catOK || ev.LineAddr != r.catLine {
		cat = r.inst.Classify(ev.LineAddr)
		r.catLine, r.catMemo, r.catOK = ev.LineAddr, cat, true
	}
	if ev.MissL1 {
		res.L1Misses++
		res.CatL1Misses[cat]++
		if r.fp != nil {
			//lint:allow hotalloc -- optional line-level tracking; nil (never allocated) on the benchmarked path
			r.fp.missL1[ev.LineAddr]++
		}
	}
	if ev.Secondary {
		res.L1Secondary++
	}
	if ev.MissL2 {
		res.L2Misses++
		res.CatL2Misses[cat]++
		if r.fp != nil {
			//lint:allow hotalloc -- optional line-level tracking; nil (never allocated) on the benchmarked path
			r.fp.missL2[ev.LineAddr]++
		}
	}
	if r.pf != nil {
		prefetch.AccessBatch(r.pf, r.pfBatch, r.evs[:], &r.sink)
		// Most events issue nothing; skip the call, not just the loop.
		if r.sink.Len() != 0 {
			r.drainSink()
		}
	}
	return lat
}

// OnInstWindow implements cpu.WindowSink: one delivery call per dispatch
// window. The core only has it installed when the component observes
// instructions.
func (r *runner) OnInstWindow(insts []trace.Inst, cycles []uint64) {
	prefetch.InstBatch(r.pfInst, r.pfInstB, insts, cycles, &r.sink)
	if r.sink.Len() != 0 {
		r.drainSink()
	}
}

// FlushSink implements prefetch.Flusher: the sink drains through the runner
// when an incoming event cannot be guaranteed headroom.
func (r *runner) FlushSink() { r.drainSink() }

// drainSink applies every collected request at its own event's cycle. The
// apply order and timestamps are those of delivering one event at a time
// and draining after each: requests were collected event by event, each
// stamped with its event's cycle.
func (r *runner) drainSink() {
	res := r.res
	reqs, ats := r.sink.Requests()
	for i := range reqs {
		req := reqs[i]
		at := ats[i]
		dest := req.Dest
		if r.cfg.DestOverride != nil {
			dest = r.cfg.DestOverride(req, r.inst.Classify(req.LineAddr))
		}
		if r.fp != nil {
			//lint:allow hotalloc -- optional line-level tracking; nil (never allocated) on the benchmarked path
			r.fp.attempted[req.LineAddr] |= 1 << res.slot(req.Owner)
		}
		if r.hier.Prefetch(req.LineAddr, dest, req.Owner, req.Priority, at) {
			// Classification is pure, so deduped and dropped requests —
			// which record no per-category state — never pay for it.
			cat := r.inst.Classify(req.LineAddr)
			res.Issued++
			res.IssuedDest[dest]++
			if r.fp != nil {
				//lint:allow hotalloc -- optional line-level tracking; nil (never allocated) on the benchmarked path
				r.fp.issued[req.LineAddr]++
			}
			res.CatIssued[cat]++
			if dest == mem.L1 {
				res.CatIssuedL1[cat]++
			}
			if o := req.Owner; o >= 0 && o < len(res.perOwner) {
				res.perOwner[o]++
				res.perOwnerCat[o][cat]++
			}
		}
	}
	r.sink.Reset()
}

// slot returns the Attempted-mask bit position for a component id.
func (r *Result) slot(owner int) uint {
	if owner < 0 || owner >= len(r.ownerSlots) {
		return 0
	}
	return uint(r.ownerSlots[owner])
}

func newResult(names map[int]string) *Result {
	res := &Result{Names: names}
	// Deterministic slot assignment by id order. Component ids are
	// contiguous from 1 (prefetch.AssignIDs), but tolerate gaps: the dense
	// arrays span up to the highest id.
	slot := uint8(0)
	maxID := 0
	for id := range names {
		if id > maxID {
			maxID = id
		}
	}
	res.perOwner = make([]uint64, maxID+1)
	res.perOwnerCat = make([][workloads.NumCategories]uint64, maxID+1)
	res.ownerSlots = make([]uint8, maxID+1)
	for id := 1; id <= maxID; id++ {
		if _, ok := names[id]; ok {
			res.ownerSlots[id] = slot
			slot++
		}
	}
	return res
}

// attachLifecycle installs a ground-truth lifecycle tracker on the core's
// hierarchy when the config asks for one. Component ids are contiguous from
// 1 (prefetch.AssignIDs), so len(names) is the highest id.
func attachLifecycle(cfg Config, hier *mem.Hierarchy, res *Result, names map[int]string) {
	if !cfg.TraceLifecycle {
		return
	}
	lc := obs.NewLifecycle(len(names))
	lc.SetSink(cfg.TraceSink)
	hier.Trace = lc
	res.Lifecycle = lc
}

// closeLifecycle resolves still-open occurrences as resident-untouched once
// the run is over.
func closeLifecycle(res *Result) {
	if res.Lifecycle != nil {
		res.Lifecycle.CloseResident(res.Core.Cycles)
	}
}

// wire builds one core's half of a run over its hierarchy and footprint
// accumulator (nil unless cfg collects footprints): the prefetcher built
// from factory with component ids from 1, the result (with its lifecycle
// tracker when traced), and the runner binding them.
func wire(cfg Config, hier *mem.Hierarchy, fp *footprints, inst workloads.Instance, factory Factory) *runner {
	var comp prefetch.Component
	names := map[int]string{}
	if factory != nil {
		comp = factory(inst)
		names = prefetch.AssignIDs(comp, 1)
	}
	res := newResult(names)
	attachLifecycle(cfg, hier, res, names)
	return newRunner(cfg, inst, hier, fp, comp, res)
}

// quantum is the instruction count a core runs per scheduling pick. The
// interleaving of cores is observable through the shared L3 and DRAM, so
// changing it changes multi-core results.
const quantum = 64

// run simulates insts[i] on core i of m's memory system for len(insts)
// cores, all sharing one L3 and DRAM, for cfg.Insts instructions each, and
// returns the per-core results.
func (m *Machine) run(insts []workloads.Instance, factory Factory, cfg Config) []*Result {
	if cfg.CoreParams.Width == 0 {
		cfg.CoreParams = cpu.DefaultParams()
	}
	cores := len(insts)
	ms := m.system(cores, cfg)
	sys := ms.sys
	type coreState struct {
		r    *runner
		core *cpu.Core
		src  *trace.Limit
		done bool
	}
	states := make([]coreState, cores)
	for i, inst := range insts {
		r := wire(cfg, ms.hiers[i], ms.footprints(i, cfg), inst, factory)
		params := cfg.CoreParams
		if cfg.UseBPred {
			params.Pred = bpred.New()
		}
		core := cpu.New(params, r, nil)
		// Dispatch windows exist only for components that observe
		// instructions; every other run pays nothing per instruction for
		// dispatch-time snooping.
		if r.pfInst != nil {
			core.SetWindowSink(r)
		}
		if debugInstWindow > 0 {
			core.SetWindowCap(debugInstWindow)
		}
		states[i] = coreState{r: r, core: core, src: &trace.Limit{Src: inst, N: cfg.Insts}}
	}

	// Advance the core that is furthest behind in simulated time so shared
	// resources see accesses in approximate time order.
	for {
		pick := -1
		var minCycle uint64 = ^uint64(0)
		for i := range states {
			if states[i].done {
				continue
			}
			if c := states[i].core.Cycle(); c < minCycle {
				minCycle, pick = c, i
			}
		}
		if pick < 0 {
			break
		}
		st := &states[pick]
		// A short NextBatch (a phase-buffer boundary) is topped up rather
		// than ending the turn early, so every pick runs exactly quantum
		// instructions.
		for k := 0; k < quantum; {
			b := st.src.NextBatch(quantum - k)
			if len(b) == 0 {
				st.done = true
				break
			}
			st.core.StepBatch(b)
			k += len(b)
		}
	}

	results := make([]*Result, cores)
	for i := range states {
		st := &states[i]
		res, hier := st.r.res, st.r.hier
		res.Core = st.core.Result()
		closeLifecycle(res)
		res.Issued = hier.Stats.PrefetchesIssued
		res.Filtered = hier.Stats.PrefetchesFiltered
		res.L1Stats = hier.L1D.Stats
		res.L2Stats = hier.L2.Stats
		// Shared traffic is system-wide; attribute the total to each result
		// so suite aggregation can normalize consistently.
		res.Traffic = sys.Mem.Stats.Lines()
		res.Dropped = sys.Mem.Stats.DroppedPrefetches
		res.DRAM = sys.Mem.Stats
		if fp := st.r.fp; fp != nil {
			fp.freeze(res)
		}
		results[i] = res
	}
	return results
}

// RunSingle executes one workload on one core with the given prefetcher
// factory (nil for the no-prefetch baseline).
func RunSingle(w workloads.Workload, factory Factory, cfg Config) *Result {
	return RunSingleOn(nil, w, factory, cfg)
}

// RunSingleOn is RunSingle over a caller-provided workload instance, such
// as a replay of a Recorded stream. A nil inst builds the workload live,
// exactly as RunSingle always has. It runs on a fresh Machine; a caller
// with many runs keeps a Machine and calls its RunSingleOn.
func RunSingleOn(inst workloads.Instance, w workloads.Workload, factory Factory, cfg Config) *Result {
	return new(Machine).RunSingleOn(inst, w, factory, cfg)
}

// RunMulti executes a 4-app mix on `cores` cores sharing L3 and DRAM; each
// core gets its own private hierarchy and its own prefetcher instance.
// Cores are interleaved in simulated-time order so contention at the shared
// levels is honored. The i-th result corresponds to the i-th app.
func RunMulti(mix workloads.Mix, factory Factory, cfg Config) []*Result {
	return RunMultiOn(nil, mix, factory, cfg)
}

// MixSeed returns the workload seed RunMulti derives for core i — the value
// a caller pre-building (or pre-recording) per-core instances must use.
func MixSeed(cfg Config, i int) uint64 { return cfg.Seed + uint64(i)*7919 }

// RunMultiOn is RunMulti over caller-provided per-core instances (nil, or
// nil slots, build the corresponding apps live at their MixSeed). It runs
// on a fresh Machine, as RunSingleOn does.
func RunMultiOn(insts []workloads.Instance, mix workloads.Mix, factory Factory, cfg Config) []*Result {
	return new(Machine).RunMultiOn(insts, mix, factory, cfg)
}

// traceInstance adapts a loaded trace file to the workload interface.
// Ground-truth categories are not recorded in trace files, so everything
// classifies as HHF; category-stratified metrics are meaningless in trace
// mode (speedup, traffic, scope and accuracy remain exact).
type traceInstance struct {
	ft *trace.FileTrace
}

func (t *traceInstance) Next(in *trace.Inst) bool               { return t.ft.Next(in) }
func (t *traceInstance) Memory() vmem.Memory                    { return t.ft.Memory }
func (t *traceInstance) Classify(cache.Line) workloads.Category { return workloads.HHF }

// RunTrace replays a captured trace file on one core with the given
// prefetcher factory (nil for the no-prefetch baseline). The trace is
// rewound first, so the same FileTrace can be replayed repeatedly. A zero
// cfg.Insts, or one past the end of the trace, replays all of it.
func RunTrace(ft *trace.FileTrace, factory Factory, cfg Config) *Result {
	ft.Reset()
	if n := uint64(len(ft.Insts)); cfg.Insts == 0 || cfg.Insts > n {
		cfg.Insts = n
	}
	return new(Machine).run([]workloads.Instance{&traceInstance{ft: ft}}, factory, cfg)[0]
}
