package sim

import (
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// HotPath drives the per-access machinery of one single-core run directly —
// no core timing model, no instruction stream — so allocation-regression
// tests can measure the demand/prefetch path in isolation. It wires up
// exactly the pieces RunSingle would: a fresh workload instance, a private
// hierarchy over its own shared system, and the prefetcher under test with
// assigned component ids.
type HotPath struct {
	r   *runner
	at  uint64
	win [1]trace.Inst
	cyc [1]uint64
}

// NewHotPath builds the hot-path harness for one workload and prefetcher
// factory (nil for the no-prefetch baseline) on a fresh Machine.
func NewHotPath(w workloads.Workload, factory Factory, cfg Config) *HotPath {
	ms := new(Machine).system(1, cfg)
	return &HotPath{r: wire(cfg, ms.hiers[0], ms.footprints(0, cfg), w.New(cfg.Seed), factory)}
}

// Access performs one demand access at the internal clock, advances the
// clock one cycle, and returns the observed latency. This is the exact
// cpu.MemPort path a load takes in a real run, including prefetcher
// training and queued-request drain.
func (h *HotPath) Access(pc, addr uint64, store bool) uint64 {
	lat := h.r.Access(pc, addr, h.at, store)
	h.at++
	return lat
}

// OnInst delivers one instruction as a one-instruction dispatch window (the
// path T2's loop hardware and P1's taint unit observe), draining any
// prefetches it issues.
func (h *HotPath) OnInst(in *trace.Inst) {
	if h.r.pfInst == nil {
		return
	}
	h.win[0], h.cyc[0] = *in, h.at
	h.r.OnInstWindow(h.win[:], h.cyc[:])
}

// Result exposes the accumulating measurements (read-only). Footprints are
// frozen only when a run ends, so a HotPath's Result never carries them.
func (h *HotPath) Result() *Result { return h.r.res }
