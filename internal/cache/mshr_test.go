package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMSHRPendingAndExpiry(t *testing.T) {
	m := NewMSHR(2)
	if _, ok := m.Allocate(0x40, 10, 110); !ok {
		t.Fatal("allocate into empty MSHR failed")
	}
	if ready, ok := m.Pending(0x40, 50); !ok || ready != 110 {
		t.Errorf("Pending = %d,%v", ready, ok)
	}
	// After completion the entry lazily expires.
	if _, ok := m.Pending(0x40, 111); ok {
		t.Error("completed entry must not be pending")
	}
}

func TestMSHRFullAndNextFree(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x40, 0, 100)
	m.Allocate(0x80, 0, 200)
	if !m.Full(50) {
		t.Error("MSHR must be full")
	}
	if nf := m.NextFree(50); nf != 100 {
		t.Errorf("NextFree = %d, want 100", nf)
	}
	if m.Full(150) {
		t.Error("one entry expired; must not be full")
	}
	if nf := m.NextFree(150); nf != 150 {
		t.Errorf("NextFree with free slot = %d", nf)
	}
}

func TestMSHRAllocateWhenFull(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(0x40, 0, 100)
	stallUntil, ok := m.Allocate(0x80, 10, 300)
	if ok {
		t.Fatal("allocation into full MSHR must fail")
	}
	if stallUntil != 100 {
		t.Errorf("stallUntil = %d, want 100", stallUntil)
	}
	if m.FullStalls != 1 {
		t.Errorf("FullStalls = %d", m.FullStalls)
	}
	// After the entry drains, allocation succeeds.
	if _, ok := m.Allocate(0x80, 150, 400); !ok {
		t.Error("allocation after drain must succeed")
	}
}

// refMSHR is the positional register file MSHR must be observably equal to:
// every operation scans the registers in index order, with no filter, bound
// or occupancy word.
type refMSHR struct {
	lines      []Line
	ready      []uint64 // 0 = free
	fullStalls uint64
}

// pending frees each landed fill and stops at the first live register that
// holds l.
func (r *refMSHR) pending(l Line, at uint64) (uint64, bool) {
	for i, rd := range r.ready {
		if rd != 0 && rd <= at {
			r.ready[i] = 0
		} else if rd != 0 && r.lines[i] == l {
			return rd, true
		}
	}
	return 0, false
}

// nextFree stops at the first register free at `at`, freeing it if its fill
// landed; with none free it returns the earliest ready time.
func (r *refMSHR) nextFree(at uint64) uint64 {
	earliest := ^uint64(0)
	for i, rd := range r.ready {
		if rd <= at {
			r.ready[i] = 0
			return at
		}
		earliest = min(earliest, rd)
	}
	return earliest
}

func (r *refMSHR) pendingOrNextFree(l Line, at, t2 uint64) (uint64, bool, uint64) {
	if rd, ok := r.pending(l, at); ok {
		return rd, true, 0
	}
	return 0, false, r.nextFree(t2)
}

// allocate claims the first register free at `at`.
func (r *refMSHR) allocate(l Line, at, readyAt uint64) (uint64, bool) {
	if readyAt == 0 {
		return 0, true
	}
	earliest := ^uint64(0)
	for i, rd := range r.ready {
		if rd <= at {
			r.lines[i], r.ready[i] = l, readyAt
			return 0, true
		}
		earliest = min(earliest, rd)
	}
	r.fullStalls++
	return earliest, false
}

// An MSHR program is a byte string: a size byte (1 + b%64 registers), then
// mshrOpBytes per operation. Each operation's bytes are its kind (b%7), a
// little-endian 24-bit line, a clock byte (b < 128 advances the clock by b,
// else it goes back by b-128 cycles, stopping at 0), a little-endian 16-bit
// t2 offset (t2 = at + offset), an admission byte (b%3 picks the claim cycle
// of an allocation: at, the probe's next-free cycle, or at - b/3) and a
// little-endian 16-bit latency (readyAt = admission + latency; 0 makes
// readyAt 0). A trailing partial operation is ignored.
const mshrOpBytes = 10

// Operation kinds. A miss probes the line and allocates it when nothing is
// pending, as mem.Hierarchy does; opAllocate allocates without a probe.
const (
	opMissPending = iota
	opMissPendingOrNextFree
	opPending
	opPendingOrNextFree
	opNextFree
	opFull
	opAllocate
	numMSHROps
)

// runMSHRProgram runs prog on an MSHR and on refMSHR and returns the first
// difference in a result or in FullStalls, or nil.
func runMSHRProgram(prog []byte) error {
	if len(prog) == 0 {
		return nil
	}
	n := 1 + int(prog[0])%MaxMSHRs
	m := NewMSHR(n)
	ref := &refMSHR{lines: make([]Line, n), ready: make([]uint64, n)}
	now := uint64(1000)
	for op, b := 0, prog[1:]; len(b) >= mshrOpBytes; op, b = op+1, b[mshrOpBytes:] {
		fail := func(what string, got, want any) error {
			return fmt.Errorf("%d registers, op %d: %s = %v, reference %v", n, op, what, got, want)
		}
		l := Line(b[1]) | Line(b[2])<<8 | Line(b[3])<<16
		if b[4] < 128 {
			now += uint64(b[4])
		} else {
			now -= min(now, uint64(b[4]-128))
		}
		at := now
		t2 := at + (uint64(b[5]) | uint64(b[6])<<8)
		lat := uint64(b[8]) | uint64(b[9])<<8
		pend, nf := false, at
		switch kind := b[0] % numMSHROps; kind {
		case opMissPending, opPending:
			r1, p1 := m.Pending(l, at)
			if r2, p2 := ref.pending(l, at); r1 != r2 || p1 != p2 {
				return fail("Pending", []any{r1, p1}, []any{r2, p2})
			}
			pend = p1 || kind == opPending
		case opMissPendingOrNextFree, opPendingOrNextFree:
			r1, p1, n1 := m.PendingOrNextFree(l, at, t2)
			if r2, p2, n2 := ref.pendingOrNextFree(l, at, t2); r1 != r2 || p1 != p2 || n1 != n2 {
				return fail("PendingOrNextFree", []any{r1, p1, n1}, []any{r2, p2, n2})
			}
			pend, nf = p1 || kind == opPendingOrNextFree, n1
		case opNextFree:
			if got, want := m.NextFree(at), ref.nextFree(at); got != want {
				return fail("NextFree", got, want)
			}
			pend = true
		case opFull:
			if got, want := m.Full(at), ref.nextFree(at) > at; got != want {
				return fail("Full", got, want)
			}
			pend = true
		}
		if !pend {
			adm := []uint64{at, nf, at - min(at, uint64(b[7]/3))}[b[7]%3]
			readyAt := uint64(0)
			if lat != 0 {
				readyAt = adm + lat
			}
			s1, ok1 := m.Allocate(l, adm, readyAt)
			if s2, ok2 := ref.allocate(l, adm, readyAt); s1 != s2 || ok1 != ok2 {
				return fail("Allocate", []any{s1, ok1}, []any{s2, ok2})
			}
		}
		if m.FullStalls != ref.fullStalls {
			return fail("FullStalls", m.FullStalls, ref.fullStalls)
		}
	}
	return nil
}

// mshrLines builds a line pool for one sequence: lines 1024 apart (the
// writeback stride mshrHash folds), lines that collide in mshrHash, and
// random lines, enough of them to fill a file of n registers.
func mshrLines(rng *rand.Rand, n int) []Line {
	var pool []Line
	for len(pool) < n+8 {
		switch base := Line(rng.Intn(1 << 20)); rng.Intn(3) {
		case 0:
			for k := Line(0); k < 4; k++ {
				pool = append(pool, base+k*1024)
			}
		case 1:
			h := base & 1023
			for hi := Line(0); hi < 4; hi++ {
				pool = append(pool, hi<<10|(h^hi))
			}
		default:
			pool = append(pool, base)
		}
	}
	return pool
}

// mshrProgram draws a program of ops operations: a file of 1 to 64
// registers, weighting 1, 2, 31, 32, 63 and 64; lines from an mshrLines
// pool; latencies up to about four per register; a clock that mostly
// creeps forward and sometimes goes back.
func mshrProgram(rng *rand.Rand, ops int) []byte {
	n := 1 + rng.Intn(MaxMSHRs)
	if rng.Intn(2) == 0 {
		n = []int{1, 2, 31, 32, 63, 64}[rng.Intn(6)]
	}
	pool := mshrLines(rng, n)
	maxLat, maxStep := 1+rng.Intn(4*n+40), 1+rng.Intn(4)
	prog := append(make([]byte, 0, 1+ops*mshrOpBytes), byte(n-1))
	for range ops {
		l := pool[rng.Intn(len(pool))]
		step := byte(rng.Intn(maxStep + 1))
		if rng.Intn(50) == 0 {
			step = 128 + byte(rng.Intn(101))
		}
		var off int
		if rng.Intn(2) == 0 {
			off = rng.Intn(maxLat)
		}
		// Misses take 3 of 8 draws, split between the two probes; the
		// other kinds take one each.
		kind := []byte{opMissPending, opMissPending, opMissPending, opPending,
			opPendingOrNextFree, opNextFree, opFull, opAllocate}[rng.Intn(8)]
		if kind == opMissPending && rng.Intn(2) == 0 {
			kind = opMissPendingOrNextFree
		}
		admit := byte(rng.Intn(3) + 3*rng.Intn(21))
		lat := 1 + rng.Intn(maxLat)
		if rng.Intn(100) == 0 {
			lat = 0
		}
		prog = append(prog, kind, byte(l), byte(l>>8), byte(l>>16), step,
			byte(off), byte(off>>8), admit, byte(lat), byte(lat>>8))
	}
	return prog
}

// TestMSHRMatchesReference runs seeded random programs on MSHR and refMSHR
// and requires equal results and equal FullStalls after each operation.
// File sizes cover 1 to MaxMSHRs; timestamps sometimes go backwards; most
// allocations follow a not-pending probe of the same line, as
// mem.Hierarchy's do, and the rest claim without one.
func TestMSHRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := 3000
	if testing.Short() {
		seqs = 300
	}
	for seq := range seqs {
		if err := runMSHRProgram(mshrProgram(rng, 2000)); err != nil {
			t.Fatalf("sequence %d: %v", seq, err)
		}
	}
}

// FuzzMSHRMatchesReference runs arbitrary programs (see mshrOpBytes) on
// MSHR and refMSHR. The corpus starts from eight 50-operation programs
// drawn as TestMSHRMatchesReference draws its sequences: short inputs keep
// the fuzzer's minimization of each new input quick.
func FuzzMSHRMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		f.Add(mshrProgram(rng, 50))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runMSHRProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}
