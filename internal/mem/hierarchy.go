// Package mem assembles the cache hierarchy of Table I — private L1D and L2,
// a shared L3, and the DRAM controller — and provides the two operations the
// rest of the simulator needs: timed demand accesses and timed prefetch
// insertion at a chosen destination level. It also keeps the running
// fetch-latency estimate (Event.MemLat) T2 uses to set its prefetch
// distance.
package mem

import (
	"divlab/internal/cache"
	"divlab/internal/dram"
	"divlab/internal/obs"
)

// Level names a destination/observation point in the hierarchy.
type Level uint8

const (
	// L1 is the private first-level data cache.
	L1 Level = iota
	// L2 is the private second-level cache.
	L2
	// L3 is the shared last-level cache.
	L3
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	}
	return "?"
}

// Config collects the per-core cache parameters (Table I defaults via
// DefaultConfig).
type Config struct {
	L1D cache.Config
	L2  cache.Config
	L3  cache.Config // geometry of the shared L3 (per System)
}

// DefaultConfig returns the Table I hierarchy for `cores` cores: 64 KB 4-way
// L1D (3-cycle), 256 KB 8-way L2 (9-cycle), 2 MB/core 16-way shared L3
// (36-cycle), 64 B lines, and 32 MSHRs at L1D and L2 and 64 at the L3.
func DefaultConfig(cores int) Config {
	return Config{
		L1D: cache.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 4, LatCycles: 3, MSHRs: 32},
		L2:  cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LatCycles: 9, MSHRs: 32},
		L3:  cache.Config{Name: "L3", SizeBytes: cores * (2 << 20), Ways: 16, LatCycles: 36, MSHRs: 64},
	}
}

// System is the shared portion of the memory system: one L3 and one DRAM
// controller, referenced by every core's Hierarchy.
type System struct {
	L3  *cache.Cache
	Mem *dram.Controller
}

// NewSystem builds the shared L3 + DRAM for the given config and drop policy.
func NewSystem(cfg Config, policy dram.DropPolicy, seed uint64) *System {
	return &System{
		L3:  cache.New(cfg.L3),
		Mem: dram.NewController(dram.DDR3Default(), policy, seed),
	}
}

// Reset returns the shared levels to the state NewSystem builds with the
// given drop policy and seed.
func (s *System) Reset(policy dram.DropPolicy, seed uint64) {
	s.L3.Reset()
	s.Mem.Reset(policy, seed)
}

// Event describes one demand access as observed at the L1D, the training
// stream every prefetcher consumes.
type Event struct {
	PC       uint64
	Addr     uint64
	LineAddr Line
	Cycle    uint64
	Latency  uint64
	Store    bool
	// MemLat is the hierarchy's running estimate of the time to fetch a
	// line from below the L1 (EWMA over demand-miss and prefetch fetches).
	// Prefetchers use it to set distances; a demand-observed wait would
	// underestimate how far ahead a fetch must start.
	MemLat uint64
	// HitL1 is true when the access hit in L1D (including late-prefetch
	// hits that had to wait).
	HitL1 bool
	// MissL1 is a primary L1D miss (no pending fetch to the line).
	MissL1 bool
	// Secondary is an L1D miss that merged with an in-flight fetch;
	// excluded from footprint accounting per the paper.
	Secondary bool
	// MissL2 is a primary L2 miss on this access's path.
	MissL2 bool
	// PrefetchHitL1/L2 report that the access was served by a line a
	// prefetcher installed (first demand use), with the owning component.
	PrefetchHitL1 bool
	PrefetchHitL2 bool
	OwnerL1       int
	OwnerL2       int
}

// Stats accumulates hierarchy-level counters beyond the per-cache ones.
type Stats struct {
	DemandAccesses     uint64
	PrefetchesIssued   uint64 // post-filter: actually caused a fetch
	PrefetchesFiltered uint64
	Writebacks         uint64
}

// Hierarchy is one core's private caches plus a reference to the shared
// system. Not safe for concurrent use.
type Hierarchy struct {
	L1D *cache.Cache
	L2  *cache.Cache
	sys *System

	Stats Stats

	// Trace, when non-nil, receives the lifecycle fate of every prefetch
	// request (and of every prefetched line's first use or untouched
	// eviction). The hot path pays one nil check per event when disabled.
	Trace *obs.Lifecycle

	// memLat is an EWMA (1/64ths) of the fetch latency below L1, updated by
	// demand misses and prefetch fetches alike.
	memLat uint64
	// now is a monotone clock (max demand timestamp seen). Prefetch
	// timestamps come from the dispatch stage, which the analytical core
	// stamps up to a ROB window earlier than execution; clamping prefetches
	// to this clock keeps MSHR occupancy and DRAM backlog checks coherent.
	now uint64

	// Hit latencies denormalized from the cache configs: Config() copies the
	// whole config struct, which is measurable on the per-prefetch path.
	l1lat, l2lat, l3lat uint64
}

// initialMemLat is memLat before the first fetch: optimistic-high, 200
// cycles in 1/64ths.
const initialMemLat = 200 << 6

// NewHierarchy builds one core's private caches over the shared system.
func NewHierarchy(cfg Config, sys *System) *Hierarchy {
	return &Hierarchy{
		L1D:    cache.New(cfg.L1D),
		L2:     cache.New(cfg.L2),
		sys:    sys,
		memLat: initialMemLat,
		l1lat:  cfg.L1D.LatCycles,
		l2lat:  cfg.L2.LatCycles,
		l3lat:  sys.L3.Config().LatCycles,
	}
}

// System returns the shared L3/DRAM this hierarchy is attached to.
func (h *Hierarchy) System() *System { return h.sys }

// MemLat returns the running fetch-latency estimate in cycles.
func (h *Hierarchy) MemLat() uint64 { return h.memLat >> 6 }

func (h *Hierarchy) updateMemLat(lat uint64) {
	h.memLat += (lat << 6) / 32
	h.memLat -= h.memLat / 32
}

// Reset returns the private caches, counters, clock and latency estimate to
// the state NewHierarchy builds, and detaches Trace. The shared system is
// not reset (System.Reset).
func (h *Hierarchy) Reset() {
	h.L1D.Reset()
	h.L2.Reset()
	h.Stats = Stats{}
	h.Trace = nil
	h.memLat = initialMemLat
	h.now = 0
}

// traceEvict reports an untouched prefetched line displaced at a level.
func (h *Hierarchy) traceEvict(level Level, ev cache.Eviction, at uint64) {
	if h.Trace != nil && ev.Prefetched {
		h.Trace.Record(obs.FateEvictedUntouched, ev.Owner, int(level), ev.LineAddr, at)
	}
}

// traceHit reports the first demand use of a prefetched line at a level.
func (h *Hierarchy) traceHit(level Level, owner int, lineAddr Line, at uint64) {
	if h.Trace != nil {
		h.Trace.Record(obs.FateDemandHit, owner, int(level), lineAddr, at)
	}
}

// writeback sends a dirty eviction to the next level down.
func (h *Hierarchy) writeback(from Level, ev cache.Eviction, at uint64) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	h.Stats.Writebacks++
	switch from {
	case L1:
		if h.L2.Contains(ev.LineAddr) {
			h.L2.MarkDirty(ev.LineAddr)
			return
		}
		// Non-inclusive victim fill into L2.
		ev2 := h.L2.Fill(ev.LineAddr, at, false, cache.NoOwner)
		h.traceEvict(L2, ev2, at)
		h.L2.MarkDirty(ev.LineAddr)
		h.writeback(L2, ev2, at)
	case L2:
		if h.sys.L3.Contains(ev.LineAddr) {
			h.sys.L3.MarkDirty(ev.LineAddr)
			return
		}
		ev3 := h.sys.L3.Fill(ev.LineAddr, at, false, cache.NoOwner)
		h.traceEvict(L3, ev3, at)
		h.sys.L3.MarkDirty(ev.LineAddr)
		h.writeback(L3, ev3, at)
	case L3:
		h.sys.Mem.Access(dram.Request{LineAddr: ev.LineAddr, Write: true}, at)
	}
}

// Misses are gated on MSHR availability BEFORE they descend: the request
// waits until a register frees (the nextFree time PendingOrNextFree
// reports) and that becomes the admission time.
// Gating at admission (rather than charging a stall after the fact) is what
// bounds a core's outstanding misses to its MSHR count, as in hardware; a
// delayed admission is charged to the cache's FullStalls counter at each
// miss site.

// Access performs a demand access at cycle `at` and returns its latency and
// the L1D-view event for prefetcher training and metrics.
func (h *Hierarchy) Access(pc, addr uint64, at uint64, store bool) (uint64, Event) {
	var ev Event
	lat := h.AccessInto(pc, addr, at, store, &ev)
	return lat, ev
}

// AccessInto is Access writing the event into a caller-owned buffer — the
// simulator's per-instruction path reuses one Event and avoids copying the
// struct through two return values every access.
func (h *Hierarchy) AccessInto(pc, addr uint64, at uint64, store bool, ev *Event) uint64 {
	h.Stats.DemandAccesses++
	if at > h.now {
		h.now = at
	}
	lineAddr := ToLine(addr)
	// Zero-then-set instead of a composite literal: the literal builds a
	// ~100-byte temp and copies it through this pointer on every access.
	*ev = Event{}
	ev.PC = pc
	ev.Addr = addr
	ev.LineAddr = lineAddr
	ev.Cycle = at
	ev.Store = store
	ev.OwnerL1 = cache.NoOwner
	ev.OwnerL2 = cache.NoOwner
	ev.MemLat = h.memLat >> 6

	l1lat := h.l1lat

	if r := h.L1D.Lookup(lineAddr, at); r.Hit {
		ev.HitL1 = true
		ev.Latency = l1lat + r.ExtraWait
		if r.WasPrefetched {
			ev.PrefetchHitL1 = true
			ev.OwnerL1 = r.Owner
			h.traceHit(L1, r.Owner, lineAddr, at)
		}
		if store {
			h.L1D.MarkDirty(lineAddr)
		}
		return ev.Latency
	}

	// L1 miss: merge with a pending fetch if one exists. One call makes the
	// pending probe and the MSHR admission gate.
	pendAt, pending, adm := h.L1D.MSHR().PendingOrNextFree(lineAddr, at, at)
	if pending {
		ev.Secondary = true
		ev.Latency = (pendAt - at) + l1lat
		// The line will be filled by the primary miss; just account.
		return ev.Latency
	}
	ev.MissL1 = true

	if adm > at {
		h.L1D.MSHR().FullStalls++
	}
	below := h.lookupL2(lineAddr, adm+l1lat, ev)
	readyAt := adm + l1lat + below
	h.L1D.MSHR().Allocate(lineAddr, adm, readyAt)
	lat := readyAt - at
	h.updateMemLat(lat)
	ev.MemLat = h.memLat >> 6

	evict := h.L1D.Fill(lineAddr, readyAt, false, cache.NoOwner)
	h.traceEvict(L1, evict, readyAt)
	h.writeback(L1, evict, readyAt)
	if store {
		h.L1D.MarkDirty(lineAddr)
	}
	ev.Latency = lat
	return lat
}

// lookupL2 resolves a miss below L1 and returns the latency from L2 access
// start to data return, filling L2 (and below) as needed.
func (h *Hierarchy) lookupL2(lineAddr Line, at uint64, ev *Event) uint64 {
	l2lat := h.l2lat
	if r := h.L2.Lookup(lineAddr, at); r.Hit {
		if r.WasPrefetched {
			ev.PrefetchHitL2 = true
			ev.OwnerL2 = r.Owner
			h.traceHit(L2, r.Owner, lineAddr, at)
		}
		return l2lat + r.ExtraWait
	}
	pendAt, pending, adm := h.L2.MSHR().PendingOrNextFree(lineAddr, at, at)
	if pending {
		return (pendAt - at) + l2lat
	}
	ev.MissL2 = true

	if adm > at {
		h.L2.MSHR().FullStalls++
	}
	below := h.lookupL3(lineAddr, adm+l2lat, false, cache.NoOwner, 0)
	readyAt := adm + l2lat + below
	h.L2.MSHR().Allocate(lineAddr, adm, readyAt)
	evict := h.L2.Fill(lineAddr, readyAt, false, cache.NoOwner)
	h.traceEvict(L2, evict, readyAt)
	h.writeback(L2, evict, readyAt)
	return readyAt - at
}

// lookupL3 resolves a miss below L2; prefetch marks droppable DRAM requests.
// owner is the prefetching component when the L3 is the prefetch's own
// destination (cache.NoOwner for demand fetches and for intermediate fills
// of prefetches destined further up, which are not lifecycle occurrences).
func (h *Hierarchy) lookupL3(lineAddr Line, at uint64, prefetch bool, owner, priority int) uint64 {
	l3 := h.sys.L3
	l3lat := h.l3lat
	if r := l3.Lookup(lineAddr, at); r.Hit {
		if r.WasPrefetched {
			// First use of an L3-destined prefetch (by a demand fetch or
			// by another prefetch passing through).
			h.traceHit(L3, r.Owner, lineAddr, at)
		}
		return l3lat + r.ExtraWait
	}
	// One call answers both the pending probe and the availability check
	// (demand admission gate, or the prefetch shed decision at the monotone
	// clock).
	t2 := at
	if prefetch {
		t2 = h.nowOrLater(at)
	}
	pendAt, pending, nf := l3.MSHR().PendingOrNextFree(lineAddr, at, t2)
	if pending {
		return (pendAt - at) + l3lat
	}
	var adm uint64
	if prefetch {
		// Prefetches never wait for an MSHR; they are shed instead.
		if nf > t2 {
			return dropMSHRSentinel
		}
		adm = at
	} else {
		adm = nf
		if adm > at {
			l3.MSHR().FullStalls++
		}
	}
	dlat, dropped := h.sys.Mem.Access(dram.Request{LineAddr: lineAddr, Prefetch: prefetch, Owner: owner, Priority: priority}, adm+l3lat)
	if dropped {
		// Only prefetches are droppable; signal with a sentinel the caller
		// understands (Prefetch checks dropped separately).
		return dropDRAMSentinel
	}
	readyAt := adm + l3lat + dlat
	l3.MSHR().Allocate(lineAddr, adm, readyAt)
	evict := l3.Fill(lineAddr, readyAt, prefetch && owner != cache.NoOwner, owner)
	h.traceEvict(L3, evict, readyAt)
	h.writeback(L3, evict, readyAt)
	return readyAt - at
}

// Drop sentinels distinguish why a prefetch was shed on its fetch path; any
// real latency is astronomically smaller.
const (
	dropDRAMSentinel = ^uint64(0) - 1
	dropMSHRSentinel = ^uint64(0)
)

// isDrop reports whether a latency value is a drop sentinel.
func isDrop(lat uint64) bool { return lat >= dropDRAMSentinel }

// nowOrLater views a timestamp through the monotone clock for occupancy
// decisions (a stale dispatch-time stamp would read phantom MSHR busyness);
// fetch *timing* keeps the caller's own timestamp so prefetch completions
// are not artificially pushed past what an equivalent demand fetch would see.
func (h *Hierarchy) nowOrLater(at uint64) uint64 {
	if h.now > at {
		return h.now
	}
	return at
}

// traceFate reports a pre-install lifecycle fate (attempted/deduped/dropped).
func (h *Hierarchy) traceFate(f obs.Fate, owner int, dest Level, lineAddr Line, at uint64) {
	if h.Trace != nil {
		h.Trace.Record(f, owner, int(dest), lineAddr, at)
	}
}

// traceDrop maps a drop sentinel to its lifecycle fate.
func (h *Hierarchy) traceDrop(lat uint64, owner int, dest Level, lineAddr Line, at uint64) {
	if h.Trace == nil {
		return
	}
	f := obs.FateDroppedMSHR
	if lat == dropDRAMSentinel {
		f = obs.FateDroppedDRAM
	}
	h.Trace.Record(f, owner, int(dest), lineAddr, at)
}

// Prefetch attempts to bring lineAddr into dest at cycle `at` on behalf of
// component `owner`. It returns whether a fetch was actually generated
// (redundant and dropped prefetches return false).
func (h *Hierarchy) Prefetch(lineAddr Line, dest Level, owner, priority int, at uint64) bool {
	h.traceFate(obs.FateAttempted, owner, dest, lineAddr, at)
	// Redundancy filter: already resident at (or above) the destination,
	// or already being fetched.
	// A redundant prefetch still signals expected reuse: refresh LRU state
	// at the level that already holds the line.
	switch dest {
	case L1:
		if h.L1D.Contains(lineAddr) {
			h.L1D.Touch(lineAddr)
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
		if _, ok := h.L1D.MSHR().Pending(lineAddr, h.nowOrLater(at)); ok {
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
	case L2:
		if h.L1D.Contains(lineAddr) || h.L2.Contains(lineAddr) {
			h.L1D.Touch(lineAddr)
			h.L2.Touch(lineAddr)
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
		if _, ok := h.L2.MSHR().Pending(lineAddr, h.nowOrLater(at)); ok {
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
	case L3:
		if h.sys.L3.Contains(lineAddr) {
			h.sys.L3.Touch(lineAddr)
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
		if _, ok := h.sys.L3.MSHR().Pending(lineAddr, h.nowOrLater(at)); ok {
			h.Stats.PrefetchesFiltered++
			h.traceFate(obs.FateDeduped, owner, dest, lineAddr, at)
			return false
		}
	}

	// Resolve from the nearest level that has the line, else DRAM.
	switch dest {
	case L1:
		// L1-destined prefetches land through a dedicated fill buffer and
		// do not compete with demand misses for L1 MSHRs; their concurrency
		// is bounded below by the L2/L3 MSHRs and the DRAM queue.
		below := h.prefetchIntoL2Path(lineAddr, at, owner, priority)
		if isDrop(below) {
			h.traceDrop(below, owner, dest, lineAddr, at)
			return false
		}
		readyAt := at + h.l1lat + below
		h.updateMemLat(readyAt - at)
		evict := h.L1D.Fill(lineAddr, readyAt, true, owner)
		if h.Trace != nil {
			h.Trace.Record(obs.FateInstalled, owner, int(L1), lineAddr, at)
		}
		h.traceEvict(L1, evict, readyAt)
		h.writeback(L1, evict, readyAt)
	case L2:
		l := h.prefetchL2(lineAddr, at, owner, priority)
		if isDrop(l) {
			h.traceDrop(l, owner, dest, lineAddr, at)
			return false
		}
		h.updateMemLat(l)
	case L3:
		l := h.lookupL3(lineAddr, at, true, owner, priority)
		if isDrop(l) {
			h.traceDrop(l, owner, dest, lineAddr, at)
			return false
		}
		if h.Trace != nil {
			h.Trace.Record(obs.FateInstalled, owner, int(L3), lineAddr, at)
		}
	}
	h.Stats.PrefetchesIssued++
	return true
}

// prefetchIntoL2Path resolves the below-L1 portion of an L1-destined
// prefetch, filling L2/L3 along the way, and returns the added latency.
func (h *Hierarchy) prefetchIntoL2Path(lineAddr Line, at uint64, owner, priority int) uint64 {
	l2lat := h.l2lat
	if h.L2.Contains(lineAddr) {
		h.L2.Touch(lineAddr)
		return l2lat
	}
	now := h.nowOrLater(at)
	pendAt, pending, nf := h.L2.MSHR().PendingOrNextFree(lineAddr, now, now)
	if pending {
		if pendAt <= at {
			return l2lat
		}
		return (pendAt - at) + l2lat
	}
	if nf > now {
		return dropMSHRSentinel
	}
	// The L2 copy left along an L1-destined fill path is a shadow, not the
	// prefetch's own occurrence: pass NoOwner down to L3 and let the live
	// map ignore its later hit/eviction events.
	below := h.lookupL3(lineAddr, at+l2lat, true, cache.NoOwner, priority)
	if isDrop(below) {
		return below
	}
	readyAt := at + l2lat + below
	h.L2.MSHR().Allocate(lineAddr, at, readyAt)
	evict := h.L2.Fill(lineAddr, readyAt, true, owner)
	h.traceEvict(L2, evict, readyAt)
	h.writeback(L2, evict, readyAt)
	return readyAt - at
}

// prefetchL2 resolves an L2-destined prefetch.
func (h *Hierarchy) prefetchL2(lineAddr Line, at uint64, owner, priority int) uint64 {
	l2lat := h.l2lat
	if h.L2.MSHR().Full(h.nowOrLater(at)) {
		return dropMSHRSentinel
	}
	below := h.lookupL3(lineAddr, at+l2lat, true, cache.NoOwner, priority)
	if isDrop(below) {
		return below
	}
	readyAt := at + l2lat + below
	h.L2.MSHR().Allocate(lineAddr, at, readyAt)
	evict := h.L2.Fill(lineAddr, readyAt, true, owner)
	if h.Trace != nil {
		h.Trace.Record(obs.FateInstalled, owner, int(L2), lineAddr, at)
	}
	h.traceEvict(L2, evict, readyAt)
	h.writeback(L2, evict, readyAt)
	return readyAt - at
}

// Line is the hierarchy-wide cache-line address unit; see cache.Line. The
// alias lets callers that already import mem write mem.Line/mem.ToLine
// without also importing internal/cache.
type Line = cache.Line

// ToLine returns the line containing byte address addr (cache.ToLine).
func ToLine(addr uint64) Line { return cache.ToLine(addr) }

// LineAt returns the line with the given index (cache.LineAt).
func LineAt(index uint64) Line { return cache.LineAt(index) }
