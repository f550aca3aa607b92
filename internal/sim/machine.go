package sim

import (
	"divlab/internal/mem"
	"divlab/internal/workloads"
)

// Machine owns what a simulation runs on: the shared memory system, each
// core's private hierarchy and each core's footprint accumulator. It builds
// them on first use and keeps one set per core count it has run. Before each
// later run on that core count it resets them to exactly the state a fresh
// build has, under the run's drop policy and seed, so a run's results never
// depend on what the Machine ran before. A caller that runs many jobs keeps
// a Machine and saves rebuilding the Table I arrays per job: about 1 MB for
// one core, 3.8 MB for a 4-core mix.
//
// The zero value is ready to use. A Machine is not safe for concurrent use.
// Results never reference its state, so they stay valid across its later
// runs.
type Machine struct {
	systems []machineSystem
}

// machineSystem is one core count's memory system and per-core state.
type machineSystem struct {
	sys   *mem.System
	hiers []*mem.Hierarchy
	// fps holds each core's footprint accumulator, built by the first run
	// that collects footprints (nil until then).
	fps []*footprints
}

// system returns m's memory system for the given core count: built on first
// use, otherwise reset to its freshly built state under cfg's drop policy
// and seed.
func (m *Machine) system(cores int, cfg Config) *machineSystem {
	for i := range m.systems {
		if ms := &m.systems[i]; len(ms.hiers) == cores {
			ms.sys.Reset(cfg.DropPolicy, cfg.Seed)
			for _, h := range ms.hiers {
				h.Reset()
			}
			return ms
		}
	}
	mc := mem.DefaultConfig(cores)
	ms := machineSystem{sys: mem.NewSystem(mc, cfg.DropPolicy, cfg.Seed), hiers: make([]*mem.Hierarchy, cores)}
	for i := range ms.hiers {
		ms.hiers[i] = mem.NewHierarchy(mc, ms.sys)
	}
	m.systems = append(m.systems, ms)
	return &m.systems[len(m.systems)-1]
}

// footprints returns core i's emptied footprint accumulator when cfg
// collects footprints, and nil otherwise.
func (ms *machineSystem) footprints(i int, cfg Config) *footprints {
	if !cfg.CollectFootprint {
		return nil
	}
	if ms.fps == nil {
		ms.fps = make([]*footprints, len(ms.hiers))
	}
	if ms.fps[i] == nil {
		ms.fps[i] = newFootprints()
	} else {
		ms.fps[i].reset()
	}
	return ms.fps[i]
}

// RunSingleOn is the package-level RunSingleOn on m.
func (m *Machine) RunSingleOn(inst workloads.Instance, w workloads.Workload, factory Factory, cfg Config) *Result {
	if inst == nil {
		inst = w.New(cfg.Seed)
	}
	return m.run([]workloads.Instance{inst}, factory, cfg)[0]
}

// RunMultiOn is the package-level RunMultiOn on m.
func (m *Machine) RunMultiOn(insts []workloads.Instance, mix workloads.Mix, factory Factory, cfg Config) []*Result {
	cores := cfg.Cores
	if cores <= 0 || cores > 4 {
		cores = 4
	}
	all := make([]workloads.Instance, cores)
	copy(all, insts)
	for i := range all {
		if all[i] == nil {
			all[i] = mix.Apps[i].New(MixSeed(cfg, i))
		}
	}
	return m.run(all, factory, cfg)
}
