// Package cpu implements the out-of-order core timing model of Table I as an
// analytical pipeline: 4-wide fetch/retire, a 192-entry ROB window,
// dependency-driven issue, in-order retirement, and a fixed branch
// misprediction penalty. Loads query an injected memory port whose latency
// already reflects cache state, MSHR occupancy, DRAM bank timing and
// in-flight prefetch readiness, so memory-level parallelism, pointer-chain
// serialization and prefetch timeliness all fall out of the dataflow.
package cpu

import (
	"math"

	"divlab/internal/trace"
)

// MemPort is the core's window onto the memory hierarchy. Access returns the
// latency observed by a demand access issued at cycle `at`.
type MemPort interface {
	Access(pc, addr uint64, at uint64, store bool) uint64
}

// InstHook observes every instruction at dispatch (the point where the
// paper's prefetcher components snoop decode/issue). cycle is the dispatch
// cycle. New wraps a hook in a WindowSink that calls it once per
// instruction of each window.
type InstHook func(in *trace.Inst, cycle uint64)

// WindowSink receives dispatch windows from StepBatch: insts[i] was
// dispatched at cycles[i]. A window is flushed immediately before every
// demand access (so prefetches issued from dispatch-time training land
// before that access), when it reaches the window cap, and at batch
// boundaries. No dispatch event is ever held back past a demand access, so
// window placement is invisible in the results: a cap of 1 delivers exactly
// what a per-instruction hook would, at the same points in the access
// stream.
type WindowSink interface {
	OnInstWindow(insts []trace.Inst, cycles []uint64)
}

// hookSink adapts an InstHook to WindowSink.
type hookSink InstHook

func (h hookSink) OnInstWindow(insts []trace.Inst, cycles []uint64) {
	for i := range insts {
		h(&insts[i], cycles[i])
	}
}

// MaxWindow is the largest dispatch window StepBatch accumulates before
// forcing a flush (and the capacity of the in-core cycle buffer).
const MaxWindow = 32

// BranchPredictor turns branch outcomes into mispredict events. Update
// trains with the actual direction and reports whether the pre-update
// prediction was wrong.
type BranchPredictor interface {
	Update(pc uint64, taken bool) bool
}

// Params configures the core (Table I defaults via DefaultParams).
type Params struct {
	Width          int    // fetch/retire width per cycle
	ROB            int    // reorder-buffer entries
	FrontendDepth  uint64 // fetch-to-issue pipeline depth
	MispredPenalty uint64 // branch misprediction penalty in cycles
	StorePorts     bool   // stores complete off the critical path
	// Pred, when set, decides mispredictions by actually predicting each
	// branch (Table I's L-Tag + loop predictor); when nil, the workload's
	// Mispredict flags are taken as ground truth. Data-dependent branches
	// flagged by the workload mispredict under either mode.
	Pred BranchPredictor
}

// DefaultParams returns the Table I core: 4-wide, 192 ROB, 15-cycle branch
// miss penalty.
func DefaultParams() Params {
	return Params{Width: 4, ROB: 192, FrontendDepth: 5, MispredPenalty: 15, StorePorts: true}
}

// Result summarizes one core run.
type Result struct {
	Insts       uint64
	Cycles      uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Core is the analytical OoO model. The zero value is not usable; construct
// with New.
type Core struct {
	p   Params
	mem MemPort
	// regReady is indexed by trace.Reg (uint8); sizing it to the full byte
	// range makes every Src1/Src2/Dst index provably in bounds. Only the low
	// trace.NumRegs slots are ever written by well-formed traces.
	regReady [256]uint64
	// ring holds fetch and retire times of inst i (mod ROB) as one slot so
	// each instruction's state lands on one cache line: every step reads both
	// words of the trailing slot and rewrites both words of the current one.
	ring     []ringSlot
	n        uint64 // instructions processed
	slot     int    // n % ROB, maintained incrementally
	minFetch uint64 // earliest fetch for the next instruction (mispredict redirect)
	lastRet  uint64 // latest retire time assigned (in-order monotonicity)
	res      Result
	// Dispatch windows: when wsink is set, StepBatch accumulates up to wcap
	// instructions per window in wcycles and delivers them in one call.
	wsink   WindowSink
	wcap    int
	wcycles [MaxWindow]uint64
}

// ringSlot pairs the fetch and retire time of one ROB slot.
type ringSlot struct {
	fetch  uint64
	retire uint64
}

// New builds a core over the given memory port. hook may be nil; a non-nil
// hook is installed as the core's window sink.
func New(p Params, memPort MemPort, hook InstHook) *Core {
	if p.Width <= 0 || p.ROB <= 0 {
		panic("cpu: width and ROB must be positive")
	}
	c := &Core{p: p, mem: memPort, wcap: MaxWindow}
	if hook != nil {
		c.wsink = hookSink(hook)
	}
	c.ring = make([]ringSlot, p.ROB)
	return c
}

// SetWindowSink installs the dispatch window sink, replacing any hook passed
// to New. With no sink, StepBatch skips window bookkeeping entirely.
func (c *Core) SetWindowSink(s WindowSink) { c.wsink = s }

// SetWindowCap overrides the dispatch-window cap (clamped to [1, MaxWindow]).
// Window placement is report-invariant; this exists so tests can fuzz it.
func (c *Core) SetWindowCap(n int) {
	if n < 1 {
		n = 1
	}
	if n > MaxWindow {
		n = MaxWindow
	}
	c.wcap = n
}

// StepBatch processes a contiguous run of instructions; it is the core's
// only timing loop. With a window sink installed, dispatch events are
// accumulated per window — the instruction slice is handed to the sink
// zero-copy, with per-instruction dispatch cycles — and flushed before every
// memory access, at the window cap, and at the end of the batch (the slice
// may be recycled by the source after return, so no window outlives the
// call). Without a sink no window bookkeeping runs.
func (c *Core) StepBatch(b []trace.Inst) {
	p := c.p
	// Core state lives in locals for the whole batch: the sink and memory
	// calls below never reach back into the core, but the compiler cannot see
	// that, so field accesses would be reloaded around every call.
	ring := c.ring
	n, slot := c.n, c.slot
	minFetch, lastRet := c.minFetch, c.lastRet
	mem, wsink, wcap := c.mem, c.wsink, c.wcap
	width, rob := uint64(p.Width), uint64(p.ROB)
	wstart, wn := 0, 0
	for i := range b {
		in := &b[i]
		// slotW trails slot by Width positions; both wrap by subtraction
		// since ROB is not a power of two and a modulo per instruction is
		// measurable on this path.
		slotW := slot - p.Width
		if slotW < 0 {
			slotW += p.ROB
		}
		prev := slot
		if slot++; slot == p.ROB {
			slot = 0
		}

		// Fetch: bandwidth (Width per cycle), ROB occupancy, and any pending
		// front-end redirect.
		var ft uint64
		if n >= width {
			ft = ring[slotW].fetch + 1
		}
		if n >= rob {
			if r := ring[prev].retire; r > ft { // retire time of inst n-ROB (same slot)
				ft = r
			}
		}
		if minFetch > ft {
			ft = minFetch
		}

		dispatch := ft + p.FrontendDepth
		if wsink != nil {
			// wn < MaxWindow whenever this store runs (the flush below fires
			// the moment wn reaches wcap <= MaxWindow), so the mask is an
			// identity that only removes the bounds check.
			c.wcycles[wn&(MaxWindow-1)] = dispatch
			wn++
			if in.Kind == trace.Load || in.Kind == trace.Store || wn == wcap {
				// A memory instruction's own dispatch event is delivered
				// (and its prefetches applied) before its demand access.
				wsink.OnInstWindow(b[wstart:i+1], c.wcycles[:wn])
				wstart, wn = i+1, 0
			}
		}

		ready := dispatch
		if t := c.regReady[in.Src1]; t > ready {
			ready = t
		}
		if t := c.regReady[in.Src2]; t > ready {
			ready = t
		}

		var complete uint64
		switch in.Kind {
		case trace.Load:
			c.res.Loads++
			complete = ready + mem.Access(in.PC, in.Addr, ready, false)
		case trace.Store:
			c.res.Stores++
			lat := mem.Access(in.PC, in.Addr, ready, true)
			if p.StorePorts {
				complete = ready + 1 // retire from the store queue off-path
			} else {
				complete = ready + lat
			}
		case trace.Branch:
			c.res.Branches++
			complete = ready + 1
			mis := in.Mispredict
			if p.Pred != nil {
				mis = p.Pred.Update(in.PC, in.Taken) || in.Mispredict
			}
			if mis {
				c.res.Mispredicts++
				redirect := complete + p.MispredPenalty
				if redirect > minFetch {
					minFetch = redirect
				}
			}
		default:
			lat := uint64(in.Lat)
			if lat == 0 {
				lat = 1
			}
			complete = ready + lat
		}

		if in.Dst != 0 {
			c.regReady[in.Dst] = complete
		}

		// In-order retirement, Width per cycle.
		rt := complete
		if rt < lastRet {
			rt = lastRet
		}
		if n >= width {
			if t := ring[slotW].retire + 1; t > rt {
				rt = t
			}
		}
		ring[prev] = ringSlot{fetch: ft, retire: rt}
		lastRet = rt
		n++
	}
	c.n, c.slot = n, slot
	c.minFetch, c.lastRet = minFetch, lastRet
	if wn > 0 {
		wsink.OnInstWindow(b[wstart:], c.wcycles[:wn])
	}
}

// Run drains src through the core and returns the result. Sources without a
// batch path are gathered into batches by trace.Limit; the instruction
// sequence is identical either way.
func (c *Core) Run(src trace.Source) Result {
	bs, ok := src.(trace.BatchSource)
	if !ok {
		bs = &trace.Limit{Src: src, N: math.MaxUint64}
	}
	for {
		b := bs.NextBatch(1 << 20)
		if len(b) == 0 {
			return c.Result()
		}
		c.StepBatch(b)
	}
}

// Result returns the statistics accumulated so far. Insts and Cycles are
// materialized here rather than stored on every instruction.
func (c *Core) Result() Result {
	c.res.Insts = c.n
	c.res.Cycles = c.lastRet
	return c.res
}

// Cycle returns the current retire-time high-water mark.
func (c *Core) Cycle() uint64 { return c.lastRet }
