package cpu

import (
	"reflect"
	"testing"

	"divlab/internal/trace"
)

// fixedMem returns a constant latency for every access.
type fixedMem struct {
	lat    uint64
	calls  int
	lastAt uint64
}

func (m *fixedMem) Access(pc, addr uint64, at uint64, store bool) uint64 {
	m.calls++
	m.lastAt = at
	return m.lat
}

func run(p Params, mem MemPort, insts []trace.Inst) Result {
	c := New(p, mem, nil)
	return c.Run(&trace.SliceSource{Insts: insts})
}

func aluChain(n int, dep bool) []trace.Inst {
	out := make([]trace.Inst, n)
	for i := range out {
		out[i] = trace.Inst{PC: uint64(i * 4), Kind: trace.ALU}
		if dep {
			out[i].Dst, out[i].Src1 = 5, 5
		}
	}
	return out
}

func TestWidthLimitedIPC(t *testing.T) {
	p := DefaultParams()
	res := run(p, &fixedMem{lat: 3}, aluChain(4000, false))
	ipc := res.IPC()
	if ipc < 3.5 || ipc > 4.01 {
		t.Errorf("independent ALUs must run near width=4 IPC, got %.2f", ipc)
	}
}

func TestDependentChainIPC(t *testing.T) {
	p := DefaultParams()
	res := run(p, &fixedMem{lat: 3}, aluChain(4000, true))
	ipc := res.IPC()
	if ipc < 0.9 || ipc > 1.1 {
		t.Errorf("serial 1-cycle chain must run at IPC ~1, got %.2f", ipc)
	}
}

func TestLoadLatencySerializes(t *testing.T) {
	// Self-dependent loads: each waits for the previous one's value.
	n := 500
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{PC: 4, Kind: trace.Load, Addr: uint64(i * 64), Dst: 5, Src1: 5}
	}
	slow := run(DefaultParams(), &fixedMem{lat: 100}, insts)
	fast := run(DefaultParams(), &fixedMem{lat: 3}, insts)
	ratio := float64(slow.Cycles) / float64(fast.Cycles)
	if ratio < 10 {
		t.Errorf("dependent load latency must dominate: ratio %.1f", ratio)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent loads: the window overlaps their latencies.
	n := 2000
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{PC: 4, Kind: trace.Load, Addr: uint64(i * 64), Dst: 0, Src1: 0}
	}
	res := run(DefaultParams(), &fixedMem{lat: 100}, insts)
	// Perfect MLP would approach IPC 4; even partial overlap must beat the
	// fully serial bound of 1/100.
	if res.IPC() < 0.5 {
		t.Errorf("independent loads must overlap, IPC=%.3f", res.IPC())
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	mk := func(mispredict bool) []trace.Inst {
		var out []trace.Inst
		for i := 0; i < 1000; i++ {
			out = append(out,
				trace.Inst{PC: 0, Kind: trace.ALU},
				trace.Inst{PC: 4, Kind: trace.Branch, Taken: true, Target: 0, Mispredict: mispredict})
		}
		return out
	}
	good := run(DefaultParams(), &fixedMem{lat: 3}, mk(false))
	bad := run(DefaultParams(), &fixedMem{lat: 3}, mk(true))
	if bad.Cycles <= good.Cycles {
		t.Errorf("mispredicts must cost cycles: %d vs %d", bad.Cycles, good.Cycles)
	}
	if bad.Mispredicts != 1000 {
		t.Errorf("mispredict count %d", bad.Mispredicts)
	}
	// Each mispredict costs roughly the penalty.
	perBranch := float64(bad.Cycles-good.Cycles) / 1000
	if perBranch < 10 || perBranch > 25 {
		t.Errorf("per-mispredict cost %.1f, want ~15", perBranch)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// With a tiny ROB, far-apart independent loads cannot overlap.
	insts := make([]trace.Inst, 1000)
	for i := range insts {
		insts[i] = trace.Inst{PC: 4, Kind: trace.Load, Addr: uint64(i * 64)}
	}
	small := Params{Width: 4, ROB: 8, FrontendDepth: 5, MispredPenalty: 15, StorePorts: true}
	big := Params{Width: 4, ROB: 512, FrontendDepth: 5, MispredPenalty: 15, StorePorts: true}
	rs := run(small, &fixedMem{lat: 200}, insts)
	rb := run(big, &fixedMem{lat: 200}, insts)
	if rs.Cycles <= rb.Cycles {
		t.Errorf("small ROB must be slower: %d vs %d", rs.Cycles, rb.Cycles)
	}
}

func TestStoresOffCriticalPath(t *testing.T) {
	insts := make([]trace.Inst, 1000)
	for i := range insts {
		insts[i] = trace.Inst{PC: 4, Kind: trace.Store, Addr: uint64(i * 64), Src1: 0}
	}
	res := run(DefaultParams(), &fixedMem{lat: 300}, insts)
	if res.IPC() < 2 {
		t.Errorf("stores must retire off-path, IPC=%.2f", res.IPC())
	}
	if res.Stores != 1000 {
		t.Errorf("store count %d", res.Stores)
	}
}

func TestHookSeesEveryInstruction(t *testing.T) {
	var n int
	hook := func(in *trace.Inst, cycle uint64) { n++ }
	c := New(DefaultParams(), &fixedMem{lat: 3}, hook)
	c.Run(&trace.SliceSource{Insts: aluChain(123, false)})
	if n != 123 {
		t.Errorf("hook saw %d of 123", n)
	}
}

func TestDispatchTimesMonotonicPerInstruction(t *testing.T) {
	// The hook's cycle must never decrease (fetch is in order).
	var last uint64
	ok := true
	hook := func(in *trace.Inst, cycle uint64) {
		if cycle < last {
			ok = false
		}
		last = cycle
	}
	c := New(DefaultParams(), &fixedMem{lat: 50}, hook)
	c.Run(&trace.SliceSource{Insts: aluChain(2000, true)})
	if !ok {
		t.Error("dispatch cycles went backwards")
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width must panic")
		}
	}()
	New(Params{}, &fixedMem{}, nil)
}

// mixedStream is a deterministic mix of ALU ops, loads, stores and branches
// (some mispredicted) over a few dependency chains.
func mixedStream(n int) []trace.Inst {
	out := make([]trace.Inst, n)
	x := uint64(88172645463325252)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		in := trace.Inst{PC: 0x400000 + uint64(i%97)*4, Dst: trace.Reg(x % 8), Src1: trace.Reg(x >> 8 % 8), Lat: uint8(x >> 16 % 4)}
		switch x >> 24 % 8 {
		case 0, 1:
			in.Kind, in.Addr = trace.Load, x>>32%(1<<20)
		case 2:
			in.Kind, in.Addr, in.Dst = trace.Store, x>>32%(1<<20), 0
		case 3:
			in.Kind, in.Taken, in.Mispredict, in.Dst = trace.Branch, x&1 == 0, x>>40%16 == 0, 0
		}
		out[i] = in
	}
	return out
}

// dispatchEvent is one instruction's dispatch as an observer sees it.
type dispatchEvent struct{ pc, cycle uint64 }

// orderMem answers with an address-derived latency and records, at every
// access, how many dispatch events had been delivered before it.
type orderMem struct {
	delivered *int
	seen      []int
}

func (m *orderMem) Access(pc, addr uint64, at uint64, store bool) uint64 {
	m.seen = append(m.seen, *m.delivered)
	return 3 + addr>>6%97
}

// observe runs insts from src on a fresh core, observed through a hook
// passed to New or, with sink set, through an equivalent WindowSink.
func observe(src trace.Source, sink bool) (Result, []dispatchEvent, []int) {
	var evs []dispatchEvent
	n := 0
	hook := func(in *trace.Inst, cycle uint64) {
		evs = append(evs, dispatchEvent{in.PC, cycle})
		n++
	}
	mem := &orderMem{delivered: &n}
	var c *Core
	if sink {
		c = New(DefaultParams(), mem, nil)
		c.SetWindowSink(recordSink(hook))
	} else {
		c = New(DefaultParams(), mem, hook)
	}
	return c.Run(src), evs, mem.seen
}

// recordSink is a WindowSink written against the window contract directly.
type recordSink func(*trace.Inst, uint64)

func (s recordSink) OnInstWindow(insts []trace.Inst, cycles []uint64) {
	if len(insts) == 0 || len(insts) != len(cycles) || len(insts) > MaxWindow {
		panic("malformed dispatch window")
	}
	for i := range insts {
		s(&insts[i], cycles[i])
	}
}

// nextOnly hides a source's batch path, leaving Run only Next.
type nextOnly struct{ src trace.Source }

func (s nextOnly) Next(in *trace.Inst) bool { return s.src.Next(in) }

// TestRunNextOnlySource: Run gathers a source without NextBatch into
// batches; the result and the dispatch sequence must equal a batch
// source's over the same instructions.
func TestRunNextOnlySource(t *testing.T) {
	insts := mixedStream(3000)
	wantRes, wantEvs, _ := observe(&trace.SliceSource{Insts: insts}, false)
	gotRes, gotEvs, _ := observe(nextOnly{&trace.SliceSource{Insts: insts}}, false)
	if gotRes != wantRes {
		t.Errorf("Next-only source: %+v, SliceSource %+v", gotRes, wantRes)
	}
	if len(wantEvs) != len(insts) {
		t.Fatalf("hook saw %d of %d instructions", len(wantEvs), len(insts))
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) {
		t.Error("Next-only source changed the hook's (PC, cycle) sequence")
	}
}

// TestHookMatchesWindowSink: a hook passed to New and an equivalent
// WindowSink see the same (PC, cycle) sequence, and every memory
// instruction's own dispatch is delivered before its access.
func TestHookMatchesWindowSink(t *testing.T) {
	insts := mixedStream(3000)
	hookRes, hookEvs, hookSeen := observe(&trace.SliceSource{Insts: insts}, false)
	sinkRes, sinkEvs, sinkSeen := observe(&trace.SliceSource{Insts: insts}, true)
	if hookRes != sinkRes {
		t.Errorf("hook run %+v, sink run %+v", hookRes, sinkRes)
	}
	if !reflect.DeepEqual(hookEvs, sinkEvs) {
		t.Error("hook and window sink saw different (PC, cycle) sequences")
	}
	if !reflect.DeepEqual(hookSeen, sinkSeen) {
		t.Error("hook and window sink were delivered at different points of the access stream")
	}
	k := 0
	for i := range insts {
		if !insts[i].IsMem() {
			continue
		}
		if hookSeen[k] != i+1 {
			t.Fatalf("access %d (inst %d) ran after %d dispatch events, want %d", k, i, hookSeen[k], i+1)
		}
		k++
	}
}
