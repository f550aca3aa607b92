package cache

import (
	"math/rand"
	"testing"
)

func TestMSHRPendingAndExpiry(t *testing.T) {
	m := NewMSHR(2)
	if _, ok := m.Allocate(0x40, 10, 110, false); !ok {
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
	m.Allocate(0x40, 0, 100, false)
	m.Allocate(0x80, 0, 200, false)
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
	m.Allocate(0x40, 0, 100, false)
	stallUntil, ok := m.Allocate(0x80, 10, 300, false)
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
	if _, ok := m.Allocate(0x80, 150, 400, false); !ok {
		t.Error("allocation after drain must succeed")
	}
}

func TestMSHROccupancy(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1*64, 0, 100, false)
	m.Allocate(2*64, 0, 150, true)
	if oc := m.Occupancy(50); oc != 2 {
		t.Errorf("Occupancy = %d", oc)
	}
	if oc := m.Occupancy(120); oc != 1 {
		t.Errorf("Occupancy after one expiry = %d", oc)
	}
	m.Reset()
	if m.Occupancy(0) != 0 || m.Size() != 4 {
		t.Error("Reset/Size broken")
	}
}

// refMSHR is the positional register file MSHR must be observably equal to:
// every operation scans the registers in index order, with no filter, hint,
// memo, bitmask or cached free index.
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

func (r *refMSHR) occupancy(at uint64) int {
	n := 0
	for i, rd := range r.ready {
		if rd != 0 && rd <= at {
			r.ready[i] = 0
		} else if rd != 0 {
			n++
		}
	}
	return n
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

// TestMSHRMatchesReference drives MSHR and refMSHR with the same random
// operations and requires equal results and equal FullStalls after each.
// File sizes cross the 64-register bitmask limit and the 255-register hint
// limit; timestamps sometimes go backwards; allocations follow a
// not-pending probe of the same line, as mem.Hierarchy's are.
func TestMSHRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs, ops := 3000, 2000
	if testing.Short() {
		seqs = 300
	}
	for seq := 0; seq < seqs; seq++ {
		n := 1 + rng.Intn(70)
		switch rng.Intn(4) {
		case 0:
			n = 1 + rng.Intn(300)
		case 1:
			n = []int{63, 64, 65, 254, 255, 256, 300}[rng.Intn(7)]
		}
		m := NewMSHR(n)
		ref := &refMSHR{lines: make([]Line, n), ready: make([]uint64, n)}
		pool := mshrLines(rng, n)
		maxLat, maxStep := 1+rng.Intn(4*n+40), 1+rng.Intn(4)
		now := uint64(1000)
		fail := func(op int, what string, got, want interface{}) {
			t.Fatalf("sequence %d (%d registers), op %d: %s = %v, reference %v", seq, n, op, what, got, want)
		}
		pending := func(op int, l Line, at uint64) bool {
			r1, p1 := m.Pending(l, at)
			if r2, p2 := ref.pending(l, at); r1 != r2 || p1 != p2 {
				fail(op, "Pending", []interface{}{r1, p1}, []interface{}{r2, p2})
			}
			return p1
		}
		pendingOrNextFree := func(op int, l Line, at, t2 uint64) (bool, uint64) {
			r1, p1, n1 := m.PendingOrNextFree(l, at, t2)
			if r2, p2, n2 := ref.pendingOrNextFree(l, at, t2); r1 != r2 || p1 != p2 || n1 != n2 {
				fail(op, "PendingOrNextFree", []interface{}{r1, p1, n1}, []interface{}{r2, p2, n2})
			}
			return p1, n1
		}
		for op := 0; op < ops; op++ {
			now += uint64(rng.Intn(maxStep + 1))
			if rng.Intn(50) == 0 {
				now -= uint64(rng.Intn(int(min(now, 100)) + 1))
			}
			at, l := now, pool[rng.Intn(len(pool))]
			t2 := at
			if rng.Intn(2) == 0 {
				t2 += uint64(rng.Intn(maxLat))
			}
			switch rng.Intn(8) {
			case 0, 1, 2: // a miss: probe, then allocate if nothing is pending
				pend, nf := false, at
				if rng.Intn(2) == 0 {
					pend, nf = pendingOrNextFree(op, l, at, t2)
				} else {
					pend = pending(op, l, at)
				}
				if pend {
					break
				}
				adm := []uint64{at, nf, at - uint64(rng.Intn(int(min(at, 20))+1))}[rng.Intn(3)]
				readyAt := adm + 1 + uint64(rng.Intn(maxLat))
				if rng.Intn(100) == 0 {
					readyAt = 0
				}
				s1, ok1 := m.Allocate(l, adm, readyAt, rng.Intn(2) == 0)
				if s2, ok2 := ref.allocate(l, adm, readyAt); s1 != s2 || ok1 != ok2 {
					fail(op, "Allocate", []interface{}{s1, ok1}, []interface{}{s2, ok2})
				}
			case 3:
				pending(op, l, at)
			case 4:
				pendingOrNextFree(op, l, at, t2)
			case 5:
				if got, want := m.NextFree(at), ref.nextFree(at); got != want {
					fail(op, "NextFree", got, want)
				}
			case 6:
				if got, want := m.Full(at), ref.nextFree(at) > at; got != want {
					fail(op, "Full", got, want)
				}
			case 7:
				if got, want := m.Occupancy(at), ref.occupancy(at); got != want {
					fail(op, "Occupancy", got, want)
				}
			}
			if m.FullStalls != ref.fullStalls {
				fail(op, "FullStalls", m.FullStalls, ref.fullStalls)
			}
		}
	}
}
