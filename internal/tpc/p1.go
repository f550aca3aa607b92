package tpc

import (
	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/trace"
	"divlab/internal/vmem"
)

// P1 is the pointer component (Sec. IV-B). It targets two patterns that
// admit timely prefetching with simple FSMs:
//
//  1. Arrays of pointers: a load j whose address is a constant offset from
//     the value of a strided load i. Detection arms the taint unit at i and
//     watches for dependent loads whose address tracks i's value; in steady
//     state, each execution of i triggers a prefetch of M[i_future] + delta,
//     and i's own stride distance is doubled.
//  2. Pointer chains: a load i whose address register transitively depends
//     on its own previous value (A_{n+1} = M[A_n + delta]). The chain FSM
//     walks ahead of the demand stream one node per trigger (two during
//     catch-up) and resets via a timeout when the predicted chain diverges.
//
// The simulator's value memory stands in for the datapath delivering load
// values to P1 in hardware.
type P1 struct {
	prefetch.Base
	t2  *T2
	mem vmem.Memory

	// Single detection candidate (the 1-entry PtrPC register + TPU).
	tpu      TaintUnit
	candPC   uint64
	candMode uint8 // 0 idle, 1 array-of-pointers, 2 pointer-chain
	candVal  uint64

	sit []p1SIT // small confirmation table (8 entries)
	// pcm carries the per-PC detection flags and the link into the chain
	// arena; chainArena holds the live chain FSMs as one flat slab (slot+1
	// links, free slots recycled through chainFree) so steady-state chain
	// prefetching chases no per-node pointers.
	pcm        pcTable[p1Flags]
	chainArena []chainState
	chainFree  []int32
	tick       uint64
}

type p1Flags struct {
	failed  uint8
	handled bool
	chain   int32 // chainArena slot + 1; 0 = no chain FSM for this PC
}

type p1SIT struct {
	valid bool
	pc    uint64 // the dependent load j (mode A) or chain load i (mode B)
	srcPC uint64 // the strided producer i (mode A only)
	delta int64
	conf  int
	lru   uint64
}

type chainState struct {
	delta    int64
	aheadVal uint64
	depth    int64
	lastVal  uint64
	haveLast bool
	mismatch int
}

const (
	p1SITEntries  = 8
	p1ConfirmAt   = 4
	p1ChainMaxD   = 12
	p1TimeoutIter = 8
	p1MaxFails    = 3
)

// NewP1 returns a P1 component cooperating with t2 and reading pointer
// values from memory.
func NewP1(t2 *T2, memory vmem.Memory) *P1 {
	if memory == nil {
		memory = vmem.Empty{}
	}
	return &P1{
		t2:  t2,
		mem: memory,
		sit: make([]p1SIT, p1SITEntries),
	}
}

// Name implements prefetch.Component.
func (p *P1) Name() string { return "p1" }

// Handles reports whether P1 has claimed pc (chain load or dependent load of
// a confirmed array-of-pointers pattern).
func (p *P1) Handles(pc uint64) bool {
	f := p.pcm.get(pc)
	return f != nil && f.handled
}

// allocChain places cs in the chain arena and returns its slot+1 link.
func (p *P1) allocChain(cs chainState) int32 {
	if n := len(p.chainFree); n > 0 {
		s := p.chainFree[n-1]
		p.chainFree = p.chainFree[:n-1]
		p.chainArena[s-1] = cs
		return s
	}
	p.chainArena = append(p.chainArena, cs)
	return int32(len(p.chainArena))
}

// freeChain retires f's chain FSM (the chain-map + handled-set delete of the
// old representation) and recycles its arena slot.
func (p *P1) freeChain(f *p1Flags) {
	p.chainArena[f.chain-1] = chainState{}
	p.chainFree = append(p.chainFree, f.chain)
	f.chain = 0
	f.handled = false
}

func (p *P1) findSIT(pc uint64) *p1SIT {
	for i := range p.sit {
		if p.sit[i].valid && p.sit[i].pc == pc {
			return &p.sit[i]
		}
	}
	return nil
}

func (p *P1) allocSIT(pc uint64) *p1SIT {
	victim := 0
	for i := range p.sit {
		if !p.sit[i].valid {
			victim = i
			break
		}
		if p.sit[i].lru < p.sit[victim].lru {
			victim = i
		}
	}
	p.sit[victim] = p1SIT{valid: true, pc: pc}
	return &p.sit[victim]
}

// OnAccess implements prefetch.Component. P1's training is driven from the
// instruction stream; misses only nominate pointer-chain candidates.
func (p *P1) OnAccess(ev *mem.Event, issue prefetch.Issuer) {}

// OnInst implements prefetch.InstObserver.
func (p *P1) OnInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	if in.Kind != trace.Load {
		p.stepOther(in)
		return
	}
	p.onLoad(in, issue)
}

// stepOther is OnInst for non-load instructions: advance the pass tick and
// propagate taint. Dependent-load observation and every load-side FSM need a
// load; splitting the cheap path lets the batch coordinator dispatch on the
// instruction kind once for all components.
func (p *P1) stepOther(in *trace.Inst) {
	p.tick++
	if p.candMode != 0 && in.PC != p.candPC {
		p.tpu.Step(in)
	}
}

// onLoad is OnInst's load tail.
func (p *P1) onLoad(in *trace.Inst, issue prefetch.Issuer) {
	p.tick++

	// Propagate taint and watch for dependent loads.
	if p.candMode != 0 && in.PC != p.candPC {
		if p.tpu.Step(in) && p.candMode == 1 {
			p.observeDependent(in)
		}
	}

	// Re-encountering the candidate ends the propagation pass.
	if p.candMode != 0 && in.PC == p.candPC {
		p.endCandidatePass(in)
	}

	// Steady-state chain prefetching. The flags pointer is fetched after the
	// candidate-pass calls above (which may insert) and stays valid through
	// the rest of this instruction: nothing below inserts into the table.
	f := p.pcm.get(in.PC)
	if f != nil && f.chain != 0 {
		p.chainStep(in, f, &p.chainArena[f.chain-1], issue)
		return
	}

	// Array-of-pointers steady state is driven through T2: when a strided
	// instruction marked ptr executes, prefetch the pointee of its future
	// element.
	if e := p.t2.SITFor(in.PC); e != nil && e.ptr {
		d := p.t2.Distance() * 2
		future := int64(in.Addr) + e.delta*d
		if future > 0 {
			if v, ok := p.mem.Value(uint64(future)); ok {
				t := int64(v) + e.ptrDelta
				if t > 0 {
					issue(p.Req(mem.ToLine(uint64(t)), mem.L1, 3))
				}
			}
		}
	}

	// Nominate a new detection candidate when idle.
	if p.candMode == 0 && (f == nil || f.failed < p1MaxFails) {
		switch {
		case p.t2.StateOf(in.PC) == stStrided:
			if e := p.t2.SITFor(in.PC); e != nil && !e.ptr {
				p.candPC, p.candMode = in.PC, 1
				if v, ok := p.mem.Value(in.Addr); ok {
					p.candVal = v
				} else {
					p.candVal = 0
				}
				p.tpu.Arm(in.Dst)
			}
		case p.t2.Rejected(in.PC) && (f == nil || !f.handled):
			p.candPC, p.candMode = in.PC, 2
			p.tpu.Arm(in.Dst)
		}
	}
}

// observeDependent checks whether load j's address is a constant offset from
// the candidate strided load's value.
func (p *P1) observeDependent(j *trace.Inst) {
	if p.candVal == 0 {
		return
	}
	delta := int64(j.Addr) - int64(p.candVal)
	e := p.findSIT(j.PC)
	if e == nil {
		e = p.allocSIT(j.PC)
		e.srcPC = p.candPC
		e.delta = delta
		e.conf = 1
		e.lru = p.tick
		return
	}
	e.lru = p.tick
	if e.srcPC == p.candPC && e.delta == delta {
		e.conf++
		if e.conf >= p1ConfirmAt {
			// Confirmed: mark the producer as a strided-pointer
			// instruction in T2's (expanded) SIT.
			if se := p.t2.SITFor(p.candPC); se != nil {
				se.ptr = true
				se.ptrDelta = delta
				fj := p.pcm.put(j.PC)
				fj.handled = true
			}
			p.resetCandidate(false)
		}
	} else {
		e.srcPC = p.candPC
		e.delta = delta
		e.conf = 1
	}
}

// endCandidatePass handles the candidate's next instance: for mode A it
// re-arms the value register for the next iteration; for mode B it checks
// self-dependence and learns the chain offset.
func (p *P1) endCandidatePass(in *trace.Inst) {
	switch p.candMode {
	case 1:
		if v, ok := p.mem.Value(in.Addr); ok {
			p.candVal = v
		} else {
			p.candVal = 0
		}
		// Taint restarts from the fresh destination.
		p.tpu.Arm(in.Dst)
		// Give up eventually if the pattern never confirms.
		if p.tick%4096 == 0 {
			p.resetCandidate(true)
		}
	case 2:
		selfDep := p.tpu.Tainted(in.Src1)
		if !selfDep {
			p.resetCandidate(true)
			return
		}
		e := p.findSIT(in.PC)
		if e == nil {
			e = p.allocSIT(in.PC)
		}
		e.lru = p.tick
		// Learn delta: addr_{n+1} = value_n + delta.
		if v, ok := p.mem.Value(in.Addr); ok {
			if e.conf > 0 {
				want := int64(in.Addr) - int64(e.srcPC) // srcPC reused as lastVal
				if want == e.delta {
					e.conf++
				} else {
					e.delta = want
					e.conf = 1
				}
			} else {
				e.conf = 1
			}
			e.srcPC = v // stash this iteration's value for the next check
			if e.conf >= p1ConfirmAt {
				fi := p.pcm.put(in.PC)
				fi.chain = p.allocChain(chainState{delta: e.delta, aheadVal: v, haveLast: true, lastVal: v})
				fi.handled = true
				p.resetCandidate(false)
			}
			p.tpu.Arm(in.Dst)
		} else {
			p.resetCandidate(true)
		}
	}
}

func (p *P1) resetCandidate(fail bool) {
	if fail && p.candPC != 0 {
		p.pcm.put(p.candPC).failed++
	}
	p.candPC, p.candMode, p.candVal = 0, 0, 0
	p.tpu.Disarm()
}

// chainStep advances the pointer-chain FSM on an execution of the chain
// load: verify the previous prediction, then walk one node further ahead
// (two while catching up to the target distance).
func (p *P1) chainStep(in *trace.Inst, f *p1Flags, cs *chainState, issue prefetch.Issuer) {
	// Correction: the previous value should predict this address. A
	// mismatch means control flow diverged from the tracked chain; the FSM
	// resynchronizes its walk to the demand front (and gives the pattern up
	// entirely after p1TimeoutIter consecutive mismatches, Sec. IV-B2).
	diverged := false
	if cs.haveLast {
		if int64(in.Addr)-int64(cs.lastVal) != cs.delta {
			cs.mismatch++
			diverged = true
			if cs.mismatch >= p1TimeoutIter {
				p.freeChain(f)
				return
			}
		} else {
			cs.mismatch = 0
		}
	}
	v, ok := p.mem.Value(in.Addr)
	if !ok {
		p.freeChain(f)
		return
	}
	cs.lastVal, cs.haveLast = v, true
	if diverged || cs.depth == 0 || cs.aheadVal == 0 {
		cs.aheadVal = v
		cs.depth = 0
	}

	// The demand stream consumed one node since the last trigger.
	if cs.depth > 0 {
		cs.depth--
	}
	// Walk toward the target distance: one hop in steady state, two during
	// catch-up (the FSM waits for each return, so at most one extra
	// in-flight hop per trigger). depth tracks the true gap to the demand
	// front so the FSM never runs away from it.
	target := p.targetDepth()
	hops := target - cs.depth
	if hops > 2 {
		hops = 2
	}
	for h := int64(0); h < hops; h++ {
		next := int64(cs.aheadVal) + cs.delta
		if next <= 0 {
			break
		}
		issue(p.Req(mem.ToLine(uint64(next)), mem.L1, 3))
		nv, ok := p.mem.Value(uint64(next))
		if !ok || nv == 0 {
			// End of list or unmapped: restart from the demand front.
			cs.aheadVal, cs.depth = v, 0
			return
		}
		cs.aheadVal = nv
		cs.depth++
	}
}

func (p *P1) targetDepth() int64 {
	d := p.t2.Distance()
	if d > p1ChainMaxD {
		d = p1ChainMaxD
	}
	if d < 2 {
		d = 2
	}
	return d
}

// Reset implements prefetch.Component.
func (p *P1) Reset() {
	p.tpu.Disarm()
	p.candPC, p.candMode, p.candVal = 0, 0, 0
	for i := range p.sit {
		p.sit[i] = p1SIT{}
	}
	p.pcm.reset()
	p.chainArena = p.chainArena[:0]
	p.chainFree = p.chainFree[:0]
	p.tick = 0
}

// StorageBits implements prefetch.Component: Table II budgets 1.07 KB —
// 1 PtrPC register, an 8-entry SIT, the 64-bit TPU, and 1 Kb of state bits.
func (p *P1) StorageBits() int {
	return 48 + p1SITEntries*(32+48+16+3) + 64 + 1024
}
