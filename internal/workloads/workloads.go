// Package workloads provides the deterministic synthetic benchmark suites
// that stand in for SPEC CPU2006, CRONO, STARBENCH and NPB (see DESIGN.md
// for the substitution argument). Each workload is composed of access-
// pattern phases — canonical strided streams, pointer chains, arrays of
// pointers, dense spatial regions, irregular gathers and random updates —
// with known ground-truth categories, which is exactly the offline
// LHF/MHF/HHF stratification the paper's Fig. 13 analysis relies on.
package workloads

import (
	"divlab/internal/cache"
	"divlab/internal/trace"
	"divlab/internal/vmem"
)

// Category is the paper's offline difficulty classification of an address:
// low-hanging fruit (canonical strided), mid-hanging fruit (non-strided but
// high spatial locality), and high-hanging fruit (everything else).
type Category uint8

const (
	// LHF marks canonical strided data.
	LHF Category = iota
	// MHF marks non-strided data with high spatial locality.
	MHF
	// HHF marks everything harder.
	HHF
	numCategories
)

// NumCategories is the number of difficulty categories.
const NumCategories = int(numCategories)

// String returns the paper's abbreviation.
func (c Category) String() string {
	switch c {
	case LHF:
		return "LHF"
	case MHF:
		return "MHF"
	case HHF:
		return "HHF"
	}
	return "?"
}

// Instance is one runnable copy of a workload: an instruction source plus
// the pointer value memory and the ground-truth classifier.
type Instance interface {
	trace.Source
	// Memory exposes pointer words for P1-style dereferencing.
	Memory() vmem.Memory
	// Classify returns the ground-truth category of a line address.
	Classify(lineAddr cache.Line) Category
}

// Workload names a benchmark and builds fresh instances of it.
type Workload struct {
	// Name is the benchmark's identifier in results tables.
	Name string
	// Suite is the benchmark suite it belongs to.
	Suite string
	// New builds a deterministic instance for the given seed.
	New func(seed uint64) Instance
}

// rng is splitmix64: tiny, fast, deterministic.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*2654435769 + 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// addrRange labels an address interval with its ground-truth category.
type addrRange struct {
	lo, hi uint64 // [lo, hi)
	cat    Category
}

// emitq is the instruction emission buffer phases fill.
type emitq struct {
	buf []trace.Inst
}

func (q *emitq) alu(pc uint64, dst, src1, src2 trace.Reg, lat uint8) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.ALU, Dst: dst, Src1: src1, Src2: src2, Lat: lat})
}

func (q *emitq) load(pc, addr uint64, dst, src trace.Reg) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.Load, Addr: addr, Dst: dst, Src1: src})
}

func (q *emitq) store(pc, addr uint64, src trace.Reg) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.Store, Addr: addr, Src1: src})
}

// loopBranch emits the backward loop-closing branch.
func (q *emitq) loopBranch(pc, target uint64, taken, mispredict bool) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.Branch, Taken: taken, Target: target, Mispredict: mispredict})
}

func (q *emitq) call(pc, target uint64) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.Branch, Taken: true, Target: target, IsCall: true})
}

func (q *emitq) ret(pc, target uint64) {
	q.buf = append(q.buf, trace.Inst{PC: pc, Kind: trace.Branch, Taken: true, Target: target, IsRet: true})
}

// phase generates one pattern's instruction stream, one iteration per call.
// fill returns false when the phase's pass is complete (it will be restarted
// in rotation).
type phase interface {
	fill(q *emitq) bool
	reset()
}

// instance rotates through its phases forever; trace.Limit bounds runs.
type instance struct {
	phases []phase
	cur    int
	q      emitq
	pos    int
	mem    vmem.Memory
	ranges []addrRange
}

var _ Instance = (*instance)(nil)

// Next implements trace.Source.
func (in *instance) Next(out *trace.Inst) bool {
	for in.pos >= len(in.q.buf) {
		in.q.buf = in.q.buf[:0]
		in.pos = 0
		if len(in.phases) == 0 {
			return false
		}
		if !in.phases[in.cur].fill(&in.q) {
			in.phases[in.cur].reset()
			in.cur = (in.cur + 1) % len(in.phases)
		}
	}
	*out = in.q.buf[in.pos]
	in.pos++
	return true
}

// NextBatch implements trace.BatchSource: it hands out the emission buffer's
// unconsumed run directly, refilling exactly as Next would. The instruction
// sequence is byte-for-byte the one Next produces.
func (in *instance) NextBatch(max int) []trace.Inst {
	for in.pos >= len(in.q.buf) {
		in.q.buf = in.q.buf[:0]
		in.pos = 0
		if len(in.phases) == 0 {
			return nil
		}
		if !in.phases[in.cur].fill(&in.q) {
			in.phases[in.cur].reset()
			in.cur = (in.cur + 1) % len(in.phases)
		}
	}
	b := in.q.buf[in.pos:]
	if len(b) > max {
		b = b[:max]
	}
	in.pos += len(b)
	return b
}

// Memory implements Instance.
func (in *instance) Memory() vmem.Memory {
	if in.mem == nil {
		return vmem.Empty{}
	}
	return in.mem
}

// Classify implements Instance.
func (in *instance) Classify(lineAddr cache.Line) Category {
	for _, r := range in.ranges {
		if lineAddr.Addr() >= r.lo && lineAddr.Addr() < r.hi {
			return r.cat
		}
	}
	return HHF
}

// builder assembles an instance from phases, assigning each a disjoint
// address region, PC range and register window.
type builder struct {
	inst    *instance
	mem     *vmem.Sparse
	nPhases int
	seed    uint64
}

func newBuilder(seed uint64) *builder {
	m := vmem.NewSparse(0)
	return &builder{inst: &instance{mem: m}, mem: m, seed: seed}
}

// slot reserves per-phase resources: an address base, a PC base and a
// register window of 6 registers.
func (b *builder) slot() (addrBase, pcBase uint64, reg trace.Reg, r *rng) {
	i := uint64(b.nPhases)
	b.nPhases++
	addrBase = (i + 1) << 28
	pcBase = 0x400000 + i*0x1000
	reg = trace.Reg(4 + (i*6)%54)
	return addrBase, pcBase, reg, newRNG(b.seed ^ (i+1)*0x9E3779B97F4A7C15)
}

func (b *builder) classify(lo, hi uint64, cat Category) {
	b.inst.ranges = append(b.inst.ranges, addrRange{lo: lo, hi: hi, cat: cat})
}

func (b *builder) add(p phase) { b.inst.phases = append(b.inst.phases, p) }

func (b *builder) build() *instance { return b.inst }
