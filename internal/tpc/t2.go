package tpc

import (
	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/trace"
)

// Instruction states held in the I-cache state bits (Sec. IV-A2).
const (
	stUnknown    uint8 = iota // ignored until it triggers a primary L1 miss
	stObserve                 // every instance updates the SIT
	stStrided                 // stable delta: T2 prefetches on every instance
	stNonStrided              // changing delta: handed to the next component
)

// T2 thresholds from the paper: sixteen consecutive equal deltas label an
// instruction strided, four consecutive changes label it non-strided, and
// prefetching starts after four equal deltas while still observing.
const (
	t2StridedAt    = 16
	t2NonStridedAt = 4
	t2IssueAt      = 4
	t2SITEntries   = 32
	t2MarginCycles = 32 // margin constant m in d = (AMAT+m)/Titer
	t2MaxDistance  = 64
)

type sitEntry struct {
	valid    bool
	mpc      uint64
	lastAddr uint64
	delta    int64
	sameCnt  int
	diffCnt  int
	lru      uint64
	// Pointer extension (Sec. IV-B1): set when P1 identified this strided
	// instruction as the base of an array-of-pointers pattern.
	ptr      bool
	ptrDelta int64
	// pfAddr is the stream's prefetch front: the last address prefetched.
	// Tracking it keeps coverage gap-free when the distance drifts.
	pfAddr  uint64
	pfValid bool
}

// T2 is the canonical-strided-stream component: loop hardware identifies
// inner loops, the stride identifier table (SIT) tracks per-instruction
// deltas keyed by mPC = PC xor RAS-top, and prefetches run
// d = (AMAT + m) / Titer iterations ahead of the demand stream.
type T2 struct {
	prefetch.Base
	cfg  T2Config
	loop *LoopHW
	ras  *RAS
	sit  []sitEntry
	// sitHint is a direct-mapped way-hint over the SIT: hint[h(mpc)] holds
	// slot+1 of the entry that last matched (0 = no hint). Hints are guesses
	// verified against the tagged entry, so they never need invalidation and
	// cannot change which entry a lookup finds — they only skip the scan.
	sitHint [64]uint8
	// state is the per-PC I-cache state bits (absent = stUnknown; stUnknown
	// itself is never stored).
	state pcTable[uint8]
	tick  uint64

	// amat is the EWMA of demand latency in 1/64ths of a cycle.
	amat uint64
}

// T2Config exposes the ablation knobs for the design choices Sec. IV-A
// motivates: call-site disambiguation via mPC, and the adaptive
// d = (AMAT+m)/Titer distance versus a fixed one.
type T2Config struct {
	// DisableMPC indexes the SIT by plain PC instead of PC xor RAS-top.
	DisableMPC bool
	// FixedDistance, when nonzero, replaces the adaptive distance.
	FixedDistance int64
}

// NewT2 returns a T2 component with the paper's design choices.
func NewT2() *T2 { return NewT2WithConfig(T2Config{}) }

// NewT2WithConfig returns a T2 component with ablation overrides applied.
func NewT2WithConfig(cfg T2Config) *T2 {
	return &T2{
		cfg:  cfg,
		loop: NewLoopHW(),
		ras:  NewRAS(32),
		sit:  make([]sitEntry, t2SITEntries),
		amat: 20 << 6,
	}
}

// Name implements prefetch.Component.
func (t *T2) Name() string { return "t2" }

// RAS exposes the return-address stack so P1 can share mPC computation.
func (t *T2) RAS() *RAS { return t.ras }

// Handles reports whether T2 has claimed pc (strided or still observing a
// promising stable delta).
func (t *T2) Handles(pc uint64) bool {
	st := t.state.get(pc)
	return st != nil && *st == stStrided
}

// StateOf returns the I-cache state for pc (stUnknown if never seen).
func (t *T2) StateOf(pc uint64) uint8 {
	st := t.state.get(pc)
	if st == nil {
		return stUnknown
	}
	return *st
}

// Rejected reports whether T2 has given up on pc (non-strided), the signal
// the coordinator uses to present the instruction to the next component.
func (t *T2) Rejected(pc uint64) bool {
	st := t.state.get(pc)
	return st != nil && *st == stNonStrided
}

func (t *T2) mpc(pc uint64) uint64 {
	if t.cfg.DisableMPC {
		return pc
	}
	return pc ^ t.ras.Top()
}

func (t *T2) sitSlot(mpc uint64) uint64 { return pcHash(mpc) & uint64(len(t.sitHint)-1) }

func (t *T2) findSIT(mpc uint64) *sitEntry {
	h := t.sitSlot(mpc)
	if s := t.sitHint[h]; s != 0 {
		if e := &t.sit[s-1]; e.valid && e.mpc == mpc {
			return e
		}
	}
	for i := range t.sit {
		if t.sit[i].valid && t.sit[i].mpc == mpc {
			t.sitHint[h] = uint8(i + 1)
			return &t.sit[i]
		}
	}
	return nil
}

func (t *T2) allocSIT(mpc uint64) *sitEntry {
	victim := 0
	for i := range t.sit {
		if !t.sit[i].valid {
			victim = i
			break
		}
		if t.sit[i].lru < t.sit[victim].lru {
			victim = i
		}
	}
	t.sit[victim] = sitEntry{valid: true, mpc: mpc}
	t.sitHint[t.sitSlot(mpc)] = uint8(victim + 1)
	return &t.sit[victim]
}

// SITFor returns the SIT entry tracking pc's current call-site context, used
// by P1 to extend strided instructions with pointer deltas.
func (t *T2) SITFor(pc uint64) *sitEntry { return t.findSIT(t.mpc(pc)) }

// Distance returns the current prefetch distance in iterations,
// d = (AMAT + m) / Titer, clamped to [1, t2MaxDistance].
func (t *T2) Distance() int64 {
	if t.cfg.FixedDistance > 0 {
		return t.cfg.FixedDistance
	}
	ti := t.loop.TIter()
	if ti == 0 {
		ti = 4
	}
	d := (t.amat>>6 + t2MarginCycles) / ti
	if d < 1 {
		d = 1
	}
	if d > t2MaxDistance {
		d = t2MaxDistance
	}
	return int64(d)
}

// OnAccess implements prefetch.Component: primary L1 misses activate
// observation of the missing instruction. The AMAT input to the distance
// formula is the hierarchy's fetch-latency estimate (how long a fetch from
// below L1 takes), not the demand-observed wait: a late prefetch waits less
// than a full fetch, and using that shorter wait would talk the distance
// into a self-fulfilling too-short value.
func (t *T2) OnAccess(ev *mem.Event, issue prefetch.Issuer) {
	if ev.MemLat > 0 {
		t.amat = ev.MemLat << 6
	}
	if ev.MissL1 {
		switch st := t.state.get(ev.PC); {
		case st == nil: // stUnknown
			*t.state.put(ev.PC) = stObserve
		case *st == stStrided:
			// A miss on a handled stream means the prefetch front has a
			// gap (e.g. requests shed under memory pressure): re-anchor so
			// the next instance re-covers from the demand point.
			if e := t.SITFor(ev.PC); e != nil {
				e.pfValid = false
			}
		}
	}
}

// OnInst implements prefetch.InstObserver: branches drive the loop hardware
// and RAS; memory instructions in observation or strided state update the
// SIT and issue prefetches.
func (t *T2) OnInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	if in.Kind == trace.Branch {
		t.ras.OnBranch(in)
		t.loop.OnBranch(in, cycle)
		return
	}
	if !in.IsMem() {
		return
	}
	t.onMemInst(in, issue)
}

// onMemInst is OnInst's memory-instruction tail, split out so the batch
// coordinator can dispatch on the instruction kind once for all components.
func (t *T2) onMemInst(in *trace.Inst, issue prefetch.Issuer) {
	stp := t.state.get(in.PC)
	if stp == nil || *stp == stNonStrided {
		return
	}
	st := *stp
	t.tick++
	mpc := t.mpc(in.PC)
	e := t.findSIT(mpc)
	if e == nil {
		e = t.allocSIT(mpc)
		e.lastAddr = in.Addr
		e.lru = t.tick
		return
	}
	e.lru = t.tick
	delta := int64(in.Addr) - int64(e.lastAddr)
	e.lastAddr = in.Addr
	if delta == 0 {
		return
	}
	if delta == e.delta {
		e.sameCnt++
		e.diffCnt = 0
	} else {
		e.delta = delta
		e.diffCnt++
		e.sameCnt = 0
	}

	switch st {
	case stObserve:
		if e.sameCnt >= t2StridedAt {
			*stp = stStrided
		} else if e.diffCnt >= t2NonStridedAt {
			*stp = stNonStrided
			return
		}
		if e.sameCnt >= t2IssueAt {
			// Prefetching starts here, but the instruction is only
			// *claimed* (hidden from other components) once it reaches the
			// fully strided state: claiming on a hunch would filter
			// accesses other components might genuinely handle.
			t.prefetchAhead(e, in.Addr, issue)
		}
	case stStrided:
		if e.diffCnt >= t2NonStridedAt {
			// The stream destabilized; fall back to observation.
			*stp = stObserve
			return
		}
		if e.sameCnt >= 1 {
			t.prefetchAhead(e, in.Addr, issue)
		}
	}
}

// prefetchAhead advances the stream's prefetch front up to the current
// distance ahead of the demand address, issuing one prefetch per line
// crossed (bounded per instance). Tracking the front instead of firing a
// single fixed-offset prefetch keeps coverage gap-free when the computed
// distance drifts with AMAT and iteration time. For strided-pointer
// instructions (Sec. IV-B1) the distance is doubled to compensate for the
// back-to-back dependent access.
func (t *T2) prefetchAhead(e *sitEntry, addr uint64, issue prefetch.Issuer) {
	d := t.Distance()
	if e.ptr {
		d *= 2
	}
	target := int64(addr) + e.delta*d
	if target <= 0 {
		return
	}
	// (Re)anchor the front if it is unset or fell behind the demand stream.
	front := int64(e.pfAddr)
	if !e.pfValid || (e.delta > 0 && front < int64(addr)) || (e.delta < 0 && front > int64(addr)) {
		front = int64(addr)
	}
	lastLine := mem.ToLine(uint64(front))
	const maxPerInstance = 4
	for issued := 0; issued < maxPerInstance; {
		next := front + e.delta
		if next <= 0 {
			break
		}
		if (e.delta > 0 && next > target) || (e.delta < 0 && next < target) {
			break
		}
		front = next
		line := mem.ToLine(uint64(front))
		if line != lastLine {
			issue(t.Req(line, mem.L1, 3))
			lastLine = line
			issued++
		}
	}
	e.pfAddr, e.pfValid = uint64(front), true
}

// Reset implements prefetch.Component.
func (t *T2) Reset() {
	t.loop.Reset()
	t.ras.Reset()
	for i := range t.sit {
		t.sit[i] = sitEntry{}
	}
	t.sitHint = [64]uint8{}
	t.state.reset()
	t.tick = 0
	t.amat = 20 << 6
}

// StorageBits implements prefetch.Component: Table II budgets 2.3 KB —
// a 32-entry SIT, 2 Kb of I-cache state bits, and the loop hardware
// (1 loop register + NLPCT).
func (t *T2) StorageBits() int {
	return t2SITEntries*(32+48+16+5+3) + 2*1024*8 + (2*48 + nlpctEntries*32)
}
