package cache

import (
	"fmt"
	"math/bits"
)

// MaxMSHRs is the largest MSHR file: one occupancy word holds a busy bit per
// register. Table I's files have 32 registers (L1D, L2) and 64 (L3).
const MaxMSHRs = 64

// MSHR models the miss-status holding registers of one cache level. An entry
// exists while a fetch for its line is outstanding; a second miss to the same
// line merges with the entry (a secondary miss — excluded from footprint
// accounting per the paper) instead of generating new downstream traffic.
//
// Entries expire lazily: the hierarchy passes the current cycle on every
// operation, and an operation frees the landed registers it walks past.
// Timestamps are not monotone across operations, so which registers an
// operation frees is part of the observable contract: each one walks the
// busy registers in index order (the set bits of occ) and stops where a
// positional scan of the whole file would.
//
// Two memos spare most operations their walk, and neither changes a result.
// minReady is a lower bound on every busy register's ready cycle: an
// operation at an earlier cycle can free nothing, so it answers without a
// sweep. sig filters the busy lines, so most probes for a line with no fetch
// outstanding skip the line comparisons. The tests hold every operation to
// a positional reference (refMSHR).
type MSHR struct {
	lines [MaxMSHRs]Line
	ready [MaxMSHRs]uint64 // completion cycle of each busy register
	occ   uint64           // bit i set iff register i is busy
	all   uint64           // one bit per register of the file
	// minReady is a lower bound on every busy register's ready cycle
	// (stale-low is safe; a walk over the whole file makes it exact).
	minReady uint64
	// sig is a 1024-bit superset filter over the busy lines (bit
	// mshrHash(line)): claims set their bit and expiries leave it stale, so
	// a clear bit proves absence. scanMiss counts the probes that passed it
	// without a match; at 16 the filter is rebuilt from the busy registers.
	sig      [16]uint64
	scanMiss int
	// FullStalls counts allocation attempts that found no free register.
	FullStalls uint64
}

// mshrHash maps a line address to its 10-bit filter slot. The upper bits are
// folded in because pure low-bit indexing aliases systematically: cache
// capacities are powers of two, so a victim writeback probes a line an exact
// multiple of 1024 behind the prefetch front and would collide with the
// front's slots on every eviction.
func mshrHash(lineAddr Line) uint64 {
	x := uint64(lineAddr)
	return (x ^ x>>10) & 1023
}

// sigBit returns the filter word index and mask for a line address.
func sigBit(lineAddr Line) (int, uint64) {
	h := mshrHash(lineAddr)
	return int(h >> 6), 1 << (h & 63)
}

// NewMSHR returns an MSHR file with n registers. It panics unless
// 0 < n <= MaxMSHRs, the sizes Config.Validate accepts.
func NewMSHR(n int) *MSHR {
	if n <= 0 || n > MaxMSHRs {
		panic(fmt.Sprintf("cache: %d MSHRs, want 1 to %d", n, MaxMSHRs))
	}
	m := &MSHR{all: ^uint64(0) >> (MaxMSHRs - n)}
	m.Reset()
	return m
}

// Reset returns the file to the state NewMSHR builds: every register free,
// both memos empty, and zero counters.
func (m *MSHR) Reset() { *m = MSHR{all: m.all, minReady: ^uint64(0)} }

// Pending returns the completion time of an outstanding fetch for lineAddr,
// if one exists at cycle `at`.
func (m *MSHR) Pending(lineAddr Line, at uint64) (readyAt uint64, ok bool) {
	if at < m.minReady {
		return m.lookup(lineAddr)
	}
	// A line whose sig bit is clear matches no register, so the walk only
	// frees landed registers.
	w, b := sigBit(lineAddr)
	maybe := m.sig[w]&b != 0
	occ, minAlive := m.occ, ^uint64(0)
	for o := occ; o != 0; o &= o - 1 {
		i := bits.TrailingZeros64(o)
		r := m.ready[i]
		if r <= at {
			occ &^= 1 << i
			continue
		}
		if maybe && m.lines[i] == lineAddr {
			m.occ = occ
			return r, true
		}
		minAlive = min(minAlive, r)
	}
	// The walk reached every busy register, so the bound is exact.
	m.occ, m.minReady = occ, minAlive
	return 0, false
}

// lookup answers Pending at a cycle below minReady, where no register can
// have landed: a match scan without side effects, skipped when sig proves
// the line absent.
func (m *MSHR) lookup(lineAddr Line) (uint64, bool) {
	if w, b := sigBit(lineAddr); m.sig[w]&b == 0 {
		return 0, false
	}
	for o := m.occ; o != 0; o &= o - 1 {
		if i := bits.TrailingZeros64(o); m.lines[i] == lineAddr {
			return m.ready[i], true
		}
	}
	if m.scanMiss++; m.scanMiss == 16 {
		m.scanMiss = 0
		m.sig = [16]uint64{}
		for o := m.occ; o != 0; o &= o - 1 {
			w, b := sigBit(m.lines[bits.TrailingZeros64(o)])
			m.sig[w] |= b
		}
	}
	return 0, false
}

// PendingOrNextFree performs Pending(lineAddr, at) and, when no fetch is
// pending, NextFree(t2), for at <= t2: the miss path's probe and admission
// gate in one call. When a fetch is pending, nextFree is 0.
func (m *MSHR) PendingOrNextFree(lineAddr Line, at, t2 uint64) (pendAt uint64, pending bool, nextFree uint64) {
	if r, ok := m.Pending(lineAddr, at); ok {
		return r, true, 0
	}
	return 0, false, m.NextFree(t2)
}

// firstFree returns the register a positional scan at cycle `at` stops at:
// the lowest one that is free or has landed by `at`. When every register is
// busy past `at`, it returns -1 and the earliest ready cycle, which it also
// keeps as the now exact minReady.
func (m *MSHR) firstFree(at uint64) (int, uint64) {
	free := ^m.occ & m.all
	if free != 0 && at < m.minReady {
		return bits.TrailingZeros64(free), 0
	}
	earliest := ^uint64(0)
	// The busy registers below the lowest free one (all of them when the
	// file is full).
	for o := m.occ & (free&-free - 1); o != 0; o &= o - 1 {
		i := bits.TrailingZeros64(o)
		r := m.ready[i]
		if r <= at {
			return i, 0
		}
		earliest = min(earliest, r)
	}
	if free != 0 {
		return bits.TrailingZeros64(free), 0
	}
	m.minReady = earliest
	return -1, earliest
}

// Allocate records an outstanding fetch for lineAddr completing at readyAt
// in the lowest register free at cycle `at`. If every register is busy, it
// reports the earliest time one frees up; the caller charges that as a stall
// and retries logically at that time.
func (m *MSHR) Allocate(lineAddr Line, at, readyAt uint64) (stallUntil uint64, ok bool) {
	if readyAt == 0 {
		// Dead on arrival: a register whose fill landed at cycle 0 is
		// freed by every later operation before it can be observed, so
		// recording it is indistinguishable from not recording it.
		return 0, true
	}
	i, earliest := m.firstFree(at)
	if i < 0 {
		m.FullStalls++
		return earliest, false
	}
	m.lines[i], m.ready[i] = lineAddr, readyAt
	m.occ |= 1 << i
	w, b := sigBit(lineAddr)
	m.sig[w] |= b
	m.minReady = min(m.minReady, readyAt)
	return 0, true
}

// NextFree returns the earliest cycle (>= at) at which a register is
// available: `at` itself when one is free, otherwise the earliest
// completion time among live entries.
func (m *MSHR) NextFree(at uint64) uint64 {
	i, earliest := m.firstFree(at)
	if i < 0 {
		return earliest
	}
	m.occ &^= 1 << i
	return at
}

// Full reports whether every register is busy at cycle `at`.
func (m *MSHR) Full(at uint64) bool { return m.NextFree(at) > at }
