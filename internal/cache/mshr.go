package cache

import "math/bits"

// MSHR models the miss-status holding registers of one cache level. An entry
// exists while a fetch for its line is outstanding; a second miss to the same
// line merges with the entry (a secondary miss — excluded from footprint
// accounting per the paper) instead of generating new downstream traffic.
//
// Entries expire lazily: the hierarchy passes the current cycle on every
// operation and entries whose fill has landed are reclaimed on demand. The
// sweep order and extent are part of the observable contract (timestamps are
// not monotone across operations), so the mutating paths sweep exactly the
// prefix of registers the original entry-struct version visited.
//
// Two layout decisions make the sweeps cheap. Readiness and validity are
// merged into one word (ready[i] == 0 marks a free register; fills always
// land at cycle >= 1), so scans touch a single slice until a line comparison
// is needed. And minReady maintains a lower bound on every nonzero ready
// word: an operation whose timestamp is below the bound cannot expire
// anything, so its sweep is side-effect-free and the implementation may
// answer it with a pure lookup — observably identical to the full sweep.
type MSHR struct {
	lines []Line
	ready []uint64 // completion cycle; 0 = register free
	live  int      // number of nonzero ready words (some may be expired-but-unswept)
	// minReady is a lower bound on every nonzero ready word (stale-low is
	// safe; full sweeps tighten it to the exact minimum).
	minReady uint64
	// sig is a 1024-bit superset membership filter over the live lines
	// (bit mshrHash(lineAddr)). Allocations set their bit; expirations
	// leave it stale; the full sweeps of the miss paths and the amortized
	// allocation-driven rebuild re-derive it from the nonzero registers.
	// A clear bit therefore proves absence, letting the pure probe paths
	// skip the match scan for lines that were never (recently) outstanding.
	sig [16]uint64
	// lastFree caches the result of PendingOrNextFree's full sweep: the
	// lowest free register index (ready[lastFree] == 0, nothing below it
	// free) as of the sweep timestamp lastFreeAt. An Allocate at a cycle
	// <= lastFreeAt must claim exactly this register — the sweep zeroed
	// every word <= its timestamp, so no unswept expiry can precede it —
	// and may therefore skip its own scan. Every other mutating operation
	// invalidates the cache (-1); pure paths leave it intact.
	lastFree   int
	lastFreeAt uint64
	// hint is a direct-mapped candidate index (register+1, 0 = none) for
	// the match scans, keyed by mshrHash(lineAddr) and written on every
	// allocation. It is verified on use, so staleness is harmless; a
	// confirmed live candidate IS the unique match, because the allocate
	// protocol (claim only after a not-pending probe at the same cycle)
	// keeps any line in at most one nonzero register: the probe either
	// swept a same-line register to zero or would have reported it
	// pending. Disabled (never written) for files above 255 registers.
	hint   [1024]uint8
	hintOK bool
	// missLine memoizes pure-path scan misses: missLine[h(L)] == L means a
	// full scan proved no nonzero register holds L, and nothing since has
	// allocated into h(L)'s slot. Expiries only remove registers, so a
	// proven absence stays true until an allocation; Allocate therefore
	// clobbers the claimed line's slot (conservatively, with an impossible
	// line) and Reset clears the array.
	missLine [1024]Line
	// scanMiss counts pure-path scans the filter failed to suppress since
	// the last rebuild. The full sweeps that normally rebuild sig rarely
	// run when dedup probes keep matching early, so a rotten filter could
	// otherwise persist; once it demonstrably lies (16 wasted scans) it is
	// re-derived from the nonzero registers — a pure walk over internal
	// state, invisible to the observable contract.
	scanMiss int
	// occ mirrors the nonzero ready words as a bitmask (bit i set iff
	// ready[i] != 0), letting the hot sweep visit only occupied registers
	// and find the lowest free index with a trailing-zeros count instead
	// of a branch per slot. Maintained unconditionally (shifts past bit 63
	// drop out), consulted only when the file fits in one word (occOK).
	occ   uint64
	mask  uint64
	occOK bool
	// FullStalls counts allocation attempts that found no free register.
	FullStalls uint64
}

// mshrHash maps a line address to its 10-bit filter/hint slot. The upper
// bits are folded in because pure low-bit indexing aliases systematically:
// cache capacities are powers of two, so a victim writeback probes a line an
// exact multiple of 1024 behind the prefetch front and would collide with
// the front's slots on every eviction.
func mshrHash(lineAddr Line) uint64 {
	x := uint64(lineAddr)
	return (x ^ x>>10) & 1023
}

// sigBit returns the filter word index and mask for a line address.
func sigBit(lineAddr Line) (int, uint64) {
	h := mshrHash(lineAddr)
	return int(h >> 6), 1 << (h & 63)
}

// setHint records i as the candidate register for lineAddr's hash slot.
func (m *MSHR) setHint(lineAddr Line, i int) {
	m.occ |= 1 << uint(i)
	if m.hintOK {
		m.hint[mshrHash(lineAddr)] = uint8(i + 1)
	}
	m.missLine[mshrHash(lineAddr)] = ^Line(0)
}

// refilter re-derives the membership filter from the nonzero registers.
func (m *MSHR) refilter() {
	m.scanMiss = 0
	var sig [16]uint64
	if m.occOK {
		for o := m.occ; o != 0; o &= o - 1 {
			w, b := sigBit(m.lines[bits.TrailingZeros64(o)])
			sig[w] |= b
		}
	} else {
		for j, r := range m.ready {
			if r != 0 {
				w, b := sigBit(m.lines[j])
				sig[w] |= b
			}
		}
	}
	m.sig = sig
}

// NewMSHR returns an MSHR file with n registers.
func NewMSHR(n int) *MSHR {
	m := emptyMSHR(make([]Line, n), make([]uint64, n))
	return &m
}

// emptyMSHR returns the empty register file over zeroed lines and ready
// words; every field it does not name starts at zero.
func emptyMSHR(lines []Line, ready []uint64) MSHR {
	n := len(ready)
	return MSHR{
		lines:    lines,
		ready:    ready,
		minReady: ^uint64(0),
		lastFree: -1,
		hintOK:   n <= 255,
		mask:     ^uint64(0) >> (64 - min(n, 64)),
		occOK:    n <= 64,
	}
}

// scanMin returns the exact minimum nonzero ready word and records it as the
// new bound. Callers use it only when every register is nonzero.
func (m *MSHR) scanMin() uint64 {
	earliest := ^uint64(0)
	for _, r := range m.ready {
		if r != 0 && r < earliest {
			earliest = r
		}
	}
	m.minReady = earliest
	return earliest
}

// Pending returns the completion time of an outstanding fetch for lineAddr,
// if one exists at cycle `at`.
func (m *MSHR) Pending(lineAddr Line, at uint64) (readyAt uint64, ok bool) {
	if m.live == 0 {
		return 0, false
	}
	if at < m.minReady {
		// Nothing can expire: the sweep is pure, so only the line match
		// remains. Free registers keep stale line words — the nonzero
		// check filters them; every nonzero register is live (> at).
		if w, b := sigBit(lineAddr); m.sig[w]&b == 0 {
			return 0, false
		}
		hs := mshrHash(lineAddr)
		if h := m.hint[hs]; h != 0 {
			if i := int(h) - 1; m.lines[i] == lineAddr && m.ready[i] != 0 {
				return m.ready[i], true
			}
		}
		if m.missLine[hs] == lineAddr {
			return 0, false
		}
		for i, l := range m.lines {
			if l == lineAddr && m.ready[i] != 0 {
				return m.ready[i], true
			}
		}
		m.missLine[hs] = lineAddr
		if m.scanMiss++; m.scanMiss >= 16 {
			m.refilter()
		}
		return 0, false
	}
	m.lastFree = -1 // expiries below change the lowest-free index
	// Hoisted match detection (same argument as in PendingOrNextFree): the
	// miss-path sweep is an order-independent reduction, so the only
	// order-sensitive piece — the prefix of expiries before an early match
	// return — is replayed here and the sweep below drops its per-register
	// line comparison.
	if w, b := sigBit(lineAddr); m.sig[w]&b != 0 {
		i := -1
		if h := m.hint[mshrHash(lineAddr)]; h != 0 && m.lines[h-1] == lineAddr && m.ready[h-1] > at {
			i = int(h) - 1
		} else {
			for j, l := range m.lines {
				if l == lineAddr && m.ready[j] > at {
					i = j
					break
				}
			}
		}
		if i >= 0 {
			for j, r := range m.ready[:i] {
				if r != 0 && r <= at {
					m.ready[j] = 0
					m.live--
					m.occ &^= 1 << uint(j)
				}
			}
			return m.ready[i], true
		}
	}
	minAlive := ^uint64(0)
	if m.occOK {
		for o := m.occ; o != 0; o &= o - 1 {
			i := bits.TrailingZeros64(o)
			r := m.ready[i]
			if r <= at {
				m.ready[i] = 0
				m.live--
				m.occ &^= 1 << uint(i)
				continue
			}
			if r < minAlive {
				minAlive = r
			}
		}
	} else {
		for i, r := range m.ready {
			if r == 0 {
				continue
			}
			if r <= at {
				m.ready[i] = 0
				m.live--
				continue
			}
			if r < minAlive {
				minAlive = r
			}
		}
	}
	// The miss case swept every register, so the surviving minimum is exact.
	// The filter keeps its stale bits (still a superset); the scan-miss
	// trigger rebuilds it when the staleness starts costing scans.
	m.minReady = minAlive
	return 0, false
}

// PendingOrNextFree performs Pending(lineAddr, at) and — when no fetch is
// pending — NextFree(t2) in a single sweep, for at <= t2. It is exactly
// equivalent to the two calls in sequence, side effects included:
//
//   - A sequential Pending that misses sweeps the whole file at `at`; the
//     NextFree(t2) that follows can then expire at most one further entry —
//     the first register with readiness in (at, t2] — because every register
//     before it is unexpirable at t2 and the scan stops there. The fused
//     sweep records that index and applies the expiry after the scan.
//   - When a pending fetch is found, the original sequence never reaches
//     NextFree (the caller returns early), so the fused op applies no t2
//     side effect and nextFree is meaningless (returned as 0).
func (m *MSHR) PendingOrNextFree(lineAddr Line, at, t2 uint64) (pendAt uint64, pending bool, nextFree uint64) {
	if m.live == 0 {
		return 0, false, t2
	}
	if t2 < m.minReady {
		// Pure at both timestamps: no register can expire at t2 (nor at
		// `at` <= t2), so the match scan and the availability answer have
		// no side effects to reproduce.
		if w, b := sigBit(lineAddr); m.sig[w]&b != 0 {
			hs := mshrHash(lineAddr)
			if h := m.hint[hs]; h != 0 && m.lines[h-1] == lineAddr && m.ready[h-1] != 0 {
				return m.ready[h-1], true, 0
			}
			if m.missLine[hs] != lineAddr {
				for i, l := range m.lines {
					if l == lineAddr && m.ready[i] != 0 {
						return m.ready[i], true, 0
					}
				}
				m.missLine[hs] = lineAddr
				if m.scanMiss++; m.scanMiss >= 16 {
					m.refilter()
				}
			}
		}
		if m.live < len(m.ready) {
			return 0, false, t2
		}
		return 0, false, m.scanMin()
	}
	m.lastFree = -1 // the expiries below change the lowest-free index
	// Hoisted match detection. The sweep's only order-dependence is the
	// prefix of expiries applied before an early match return; everything
	// on the miss path (expire all r <= at, first = lowest index free by
	// t2, the minima, the filter) is an order-independent reduction. So:
	// find the match the sweep would have found — the first register
	// holding lineAddr that is live at `at` (expired ones are reclaimed,
	// not matched) — replay exactly the prefix expiries, and return; the
	// common no-match sweep then needs no per-register line comparison.
	if w, b := sigBit(lineAddr); m.sig[w]&b != 0 {
		i := -1
		if h := m.hint[mshrHash(lineAddr)]; h != 0 && m.lines[h-1] == lineAddr && m.ready[h-1] > at {
			i = int(h) - 1
		} else {
			for j, l := range m.lines {
				if l == lineAddr && m.ready[j] > at {
					i = j
					break
				}
			}
		}
		if i >= 0 {
			for j, r := range m.ready[:i] {
				if r != 0 && r <= at {
					m.ready[j] = 0
					m.live--
					m.occ &^= 1 << uint(j)
				}
			}
			return m.ready[i], true, 0
		}
	}
	first := -1 // first register free at t2 (post-sweep), as NextFree would see
	minAlive := ^uint64(0)
	earliest := ^uint64(0)
	if m.occOK {
		// Visit only occupied registers; the lowest index free at t2 is
		// the trailing-zeros count of (free-after-expiry | still-pending-
		// by-t2), exactly the first index the positional scan would take.
		// Sweep state stays in locals: the struct fields would be re-read
		// and re-written every iteration otherwise.
		occ := m.occ
		ready := m.ready
		live := m.live
		var le2 uint64
		for o := occ; o != 0; o &= o - 1 {
			i := bits.TrailingZeros64(o)
			if i >= len(ready) {
				break
			}
			r := ready[i]
			if r <= at {
				ready[i] = 0
				live--
				occ &^= 1 << uint(i)
				continue
			}
			if r < minAlive {
				minAlive = r
			}
			if r <= t2 {
				le2 |= 1 << uint(i)
			} else if r < earliest {
				earliest = r
			}
		}
		m.occ = occ
		m.live = live
		if cand := ^occ&m.mask | le2; cand != 0 {
			first = bits.TrailingZeros64(cand)
		}
	} else {
		for i, r := range m.ready {
			if r == 0 {
				if first < 0 {
					first = i
				}
				continue
			}
			if r <= at {
				m.ready[i] = 0
				m.live--
				if first < 0 {
					first = i
				}
				continue
			}
			if r < minAlive {
				minAlive = r
			}
			if r <= t2 {
				if first < 0 {
					first = i
				}
				continue
			}
			if r < earliest {
				earliest = r
			}
		}
	}
	// Miss: the whole file was swept at `at`; survivors all exceed `at`, so
	// minAlive is a valid bound (the post-scan expiry below only removes an
	// element, which cannot lower the true minimum). The filter keeps its
	// stale superset bits; the scan-miss trigger refreshes it on demand.
	m.minReady = minAlive
	if first < 0 {
		return 0, false, earliest
	}
	if r := m.ready[first]; r != 0 && r <= t2 {
		m.ready[first] = 0
		m.live--
		m.occ &^= 1 << uint(first)
	}
	// ready[first] is now zero and no lower register is free; cache it for
	// the Allocate that typically follows this probe on the miss path.
	m.lastFree, m.lastFreeAt = first, at
	return 0, false, t2
}

// Allocate records an outstanding fetch for lineAddr completing at readyAt.
// If every register is busy at cycle `at`, it reports the earliest time one
// frees up; the caller charges that as a stall and retries logically at that
// time. prefetch marks prefetch-initiated fetches; the flag is accepted for
// interface fidelity but drop decisions happen at the DRAM queue, so it is
// not stored.
func (m *MSHR) Allocate(lineAddr Line, at, readyAt uint64, prefetch bool) (stallUntil uint64, ok bool) {
	_ = prefetch
	if readyAt == 0 {
		// Dead on arrival: a register whose fill landed at cycle 0 is
		// expired by every subsequent sweep before it can be observed,
		// so recording it is indistinguishable from not recording it.
		return 0, true
	}
	if lf := m.lastFree; lf >= 0 {
		m.lastFree = -1
		if at <= m.lastFreeAt {
			// The probe's sweep already proved lf is the claim index (see
			// the field doc); the scans below would reproduce it.
			m.lines[lf] = lineAddr
			m.ready[lf] = readyAt
			m.live++
			m.setHint(lineAddr, lf)
			w, b := sigBit(lineAddr)
			m.sig[w] |= b
			if readyAt < m.minReady {
				m.minReady = readyAt
			}
			return 0, true
		}
	}
	if at < m.minReady {
		// Pure claim: nothing can expire, so the scan stops at the first
		// free register without side effects.
		if m.live == len(m.ready) {
			m.FullStalls++
			return m.scanMin(), false
		}
		if m.occOK {
			// occ mirrors the nonzero ready words, so the lowest clear bit
			// is exactly the first register the scan below would claim (a
			// clear bit exists: live < len <= 64).
			i := bits.TrailingZeros64(^m.occ & m.mask)
			m.lines[i] = lineAddr
			m.ready[i] = readyAt
			m.live++
			m.setHint(lineAddr, i)
			w, b := sigBit(lineAddr)
			m.sig[w] |= b
			if readyAt < m.minReady {
				m.minReady = readyAt
			}
			return 0, true
		}
		for i, r := range m.ready {
			if r == 0 {
				m.lines[i] = lineAddr
				m.ready[i] = readyAt
				m.live++
				m.setHint(lineAddr, i)
				w, b := sigBit(lineAddr)
				m.sig[w] |= b
				if readyAt < m.minReady {
					m.minReady = readyAt
				}
				return 0, true
			}
		}
	}
	freeAt := ^uint64(0)
	if m.occOK {
		// The positional scan claims the lowest index that is free or
		// expired; with the mask that is min(lowest clear bit, lowest
		// occupied bit whose word expired by `at`).
		f1 := bits.TrailingZeros64(^m.occ & m.mask)
		claim := -1
		for o := m.occ; o != 0; o &= o - 1 {
			i := bits.TrailingZeros64(o)
			if i > f1 {
				break
			}
			r := m.ready[i]
			if r <= at {
				m.live--
				claim = i
				break
			}
			if r < freeAt {
				freeAt = r
			}
		}
		if claim < 0 && f1 < len(m.ready) {
			claim = f1
		}
		if claim >= 0 {
			m.lines[claim] = lineAddr
			m.ready[claim] = readyAt
			m.live++
			m.setHint(lineAddr, claim)
			w, b := sigBit(lineAddr)
			m.sig[w] |= b
			if readyAt < m.minReady {
				m.minReady = readyAt
			}
			return 0, true
		}
	} else {
		for i, r := range m.ready {
			if r <= at { // free (0) or expired — either way the scan claims it
				if r != 0 {
					m.live--
				}
				m.lines[i] = lineAddr
				m.ready[i] = readyAt
				m.live++
				m.setHint(lineAddr, i)
				w, b := sigBit(lineAddr)
				m.sig[w] |= b
				if readyAt < m.minReady {
					m.minReady = readyAt
				}
				return 0, true
			}
			if r < freeAt {
				freeAt = r
			}
		}
	}
	// Full: every register was visited and none expired, so freeAt is the
	// exact minimum.
	m.minReady = freeAt
	m.FullStalls++
	return freeAt, false
}

// NextFree returns the earliest cycle (>= at) at which a register is
// available: `at` itself when one is free, otherwise the earliest
// completion time among live entries.
func (m *MSHR) NextFree(at uint64) uint64 {
	if m.live == 0 {
		return at
	}
	if at < m.minReady {
		if m.live < len(m.ready) {
			return at
		}
		return m.scanMin()
	}
	earliest := ^uint64(0)
	if m.occOK {
		f1 := bits.TrailingZeros64(^m.occ & m.mask)
		for o := m.occ; o != 0; o &= o - 1 {
			i := bits.TrailingZeros64(o)
			if i > f1 {
				return at
			}
			r := m.ready[i]
			if r <= at {
				m.ready[i] = 0
				m.live--
				m.occ &^= 1 << uint(i)
				m.lastFree = -1
				return at
			}
			if r < earliest {
				earliest = r
			}
		}
		if f1 < len(m.ready) {
			return at
		}
	} else {
		for i, r := range m.ready {
			if r <= at {
				if r != 0 {
					m.ready[i] = 0
					m.live--
					m.lastFree = -1
				}
				return at
			}
			if r < earliest {
				earliest = r
			}
		}
	}
	m.minReady = earliest
	return earliest
}

// Full reports whether every register is busy at cycle `at`.
func (m *MSHR) Full(at uint64) bool { return m.NextFree(at) > at }

// Occupancy returns the number of live entries at cycle `at`.
func (m *MSHR) Occupancy(at uint64) int {
	if m.live == 0 || at < m.minReady {
		return m.live
	}
	m.lastFree = -1
	minAlive := ^uint64(0)
	for i, r := range m.ready {
		if r == 0 {
			continue
		}
		if r <= at {
			m.ready[i] = 0
			m.live--
			m.occ &^= 1 << uint(i)
			continue
		}
		if r < minAlive {
			minAlive = r
		}
	}
	m.minReady = minAlive
	return m.live
}

// Size returns the number of registers.
func (m *MSHR) Size() int { return len(m.ready) }

// Reset returns the file to the state NewMSHR builds: every register free,
// every filter, hint and memo empty, and zero counters.
func (m *MSHR) Reset() {
	clear(m.lines)
	clear(m.ready)
	*m = emptyMSHR(m.lines, m.ready)
}
