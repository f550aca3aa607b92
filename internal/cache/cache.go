// Package cache implements the set-associative caches of the simulated
// hierarchy: LRU replacement, MSHR files of up to MaxMSHRs registers with
// secondary-miss merging, per-line prefetch tags (owner identity and
// readiness timestamps for timeliness modelling), and shadow "alternate
// reality" tag arrays: the demand-only view Sec. V-C of the paper
// attributes pollution with, used here as the reference model the
// hierarchy's tests compare against. The tests hold Cache and MSHR to naive
// positional references (TestCacheMatchesReference,
// TestMSHRMatchesReference).
package cache

import "fmt"

// LineBytes is the cache line size used throughout the hierarchy (Table I).
const LineBytes = 64

// Config describes one cache level.
type Config struct {
	// Name labels the cache in stats output ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LatCycles is the hit latency in cycles.
	LatCycles uint64
	// MSHRs is the number of outstanding-miss registers, at most MaxMSHRs.
	MSHRs int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (LineBytes * c.Ways) }

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size and ways must be positive", c.Name)
	}
	if c.SizeBytes%(LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	if c.MSHRs <= 0 || c.MSHRs > MaxMSHRs {
		return fmt.Errorf("cache %s: %d MSHRs, want 1 to %d", c.Name, c.MSHRs, MaxMSHRs)
	}
	return nil
}

// NoOwner marks a line not installed by any prefetcher.
const NoOwner = -1

// invalidTag fills the tag word of empty ways. It is an impossible line
// address (the top of the 64-bit space, unreachable by any workload), so the
// resident scan needs only the tag comparison: a match implies validity and
// the flags array stays out of the tag loop entirely.
const invalidTag = ^Line(0)

// Per-way metadata is packed into a single uint64 word so the non-tag state
// of a way — validity/dirty/prefetched flags, installing owner, and LRU
// tick — lives on one cache line instead of three parallel arrays. Layout:
// flags in bits [0,3), owner+1 in bits [3,19) (so NoOwner = -1 encodes as
// zero and a cleared word means "no owner"), and the LRU tick in bits
// [19,64). 45 tick bits cover ~3.5e13 touches, orders of magnitude beyond
// any run; 16 owner bits cover every component id AssignIDs can produce.
const (
	flagValid uint64 = 1 << iota
	flagDirty
	flagPrefetched // installed by a prefetch and not yet demanded

	metaFlagMask   uint64 = 1<<metaOwnerShift - 1
	metaOwnerShift        = 3
	metaUseShift          = 19
	metaOwnerMask  uint64 = 1<<(metaUseShift-metaOwnerShift) - 1
)

// metaWord assembles a packed metadata word.
func metaWord(flags uint64, owner int, use uint64) uint64 {
	return flags | uint64(owner+1)<<metaOwnerShift | use<<metaUseShift
}

// metaOwner extracts the owner id (NoOwner for lines no prefetcher installed).
func metaOwner(m uint64) int { return int(m>>metaOwnerShift&metaOwnerMask) - 1 }

// Stats accumulates event counts for one cache.
type Stats struct {
	Accesses                uint64
	Hits                    uint64
	Misses                  uint64 // primary misses only
	SecondaryMisses         uint64 // miss with a pending fetch to the same line
	PrefetchFills           uint64
	DemandFills             uint64
	PrefetchHits            uint64 // demand hits on lines still marked prefetched
	PrefetchedEvictedUnused uint64
}

// Cache is one level of the hierarchy. It is purely functional with respect
// to timing: callers pass the current cycle and receive readiness-based
// extra waits; the cache never advances time itself.
//
// The tag store is laid out struct-of-arrays (parallel slices indexed by
// set*ways+way) so the tag-match scan of a lookup touches one dense tag
// array instead of striding over fat per-line structs. Every lookup is one
// scan of its set's tags; a fill touches tags, meta and readyAt.
type Cache struct {
	cfg  Config
	ways int
	tags []Line
	// meta holds the packed per-way metadata (see metaWord); readyAt stays
	// separate because it needs the full cycle range.
	meta    []uint64
	readyAt []uint64
	setMask uint64
	useTick uint64
	mshr    *MSHR
	// Stats is exported for the metrics layer to read and reset.
	Stats Stats
}

// New builds a cache from cfg. It panics on an invalid configuration, which
// is a programming error in the experiment setup, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets() * cfg.Ways
	tags := make([]Line, n)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		tags:    tags,
		meta:    make([]uint64, n),
		readyAt: make([]uint64, n),
		setMask: uint64(cfg.Sets() - 1),
		mshr:    NewMSHR(cfg.MSHRs),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// MSHR exposes the miss-status registers for the hierarchy to consult.
func (c *Cache) MSHR() *MSHR { return c.mshr }

func (c *Cache) setIndex(lineAddr Line) uint64 { return lineAddr.Index() & c.setMask }

// LookupResult describes the outcome of a demand lookup.
type LookupResult struct {
	Hit bool
	// ExtraWait is the additional cycles a hit must wait for an in-flight
	// (late) prefetch to arrive; zero for settled lines.
	ExtraWait uint64
	// WasPrefetched reports whether the hit consumed a prefetched line for
	// the first time.
	WasPrefetched bool
	// Owner is the prefetcher that installed the line (NoOwner otherwise).
	Owner int
}

// find returns the way-store index of lineAddr if resident, else -1. Empty
// ways hold invalidTag, so the scan is a pure tag comparison.
func (c *Cache) find(lineAddr Line) int {
	base := int(c.setIndex(lineAddr)) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			return base + i
		}
	}
	return -1
}

// Lookup performs a demand access at cycle `at`. On a hit it updates LRU
// state and clears the line's prefetched mark (the prefetch became useful).
func (c *Cache) Lookup(lineAddr Line, at uint64) LookupResult {
	c.Stats.Accesses++
	if i := c.find(lineAddr); i >= 0 {
		c.useTick++
		m := c.meta[i]&(metaFlagMask|metaOwnerMask<<metaOwnerShift) | c.useTick<<metaUseShift
		res := LookupResult{Hit: true, Owner: metaOwner(m)}
		if c.readyAt[i] > at {
			res.ExtraWait = c.readyAt[i] - at
		}
		if m&flagPrefetched != 0 {
			res.WasPrefetched = true
			m &^= flagPrefetched
			c.Stats.PrefetchHits++
		}
		c.meta[i] = m
		c.Stats.Hits++
		return res
	}
	c.Stats.Misses++
	return LookupResult{}
}

// Contains reports whether lineAddr is resident, without touching LRU state
// or statistics. The prefetch filter uses it to avoid redundant prefetches.
func (c *Cache) Contains(lineAddr Line) bool { return c.find(lineAddr) >= 0 }

// Touch refreshes LRU state for lineAddr if resident (used when an upper
// level hits and the inclusive lower level should observe recency).
func (c *Cache) Touch(lineAddr Line) {
	if i := c.find(lineAddr); i >= 0 {
		c.useTick++
		c.meta[i] = c.meta[i]&(metaFlagMask|metaOwnerMask<<metaOwnerShift) | c.useTick<<metaUseShift
	}
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Valid      bool
	LineAddr   Line
	Dirty      bool
	Prefetched bool // evicted before any demand use
	Owner      int
}

// Fill installs lineAddr, ready at `readyAt`, and returns the eviction, if
// any. prefetched marks prefetch-installed lines; owner identifies the
// issuing component. The line takes the set's last empty way or, in a full
// set, the least recently used one (ties go to the lowest way). A refill of
// a resident line only lowers its readyAt.
func (c *Cache) Fill(lineAddr Line, readyAt uint64, prefetched bool, owner int) Eviction {
	base := int(c.setIndex(lineAddr)) * c.ways
	tags := c.tags[base : base+c.ways]
	meta := c.meta[base : base+c.ways]
	// One pass finds a resident match, the last empty way, and the LRU way.
	// The LRU candidate is only consulted when every way is valid, where the
	// strict < keeps the lowest index on ties — exactly the original
	// dedicated second scan. (Tick bits sit above the flag/owner bits, so
	// comparing them means comparing meta >> metaUseShift.)
	invalid, lru := -1, 0
	minUse := ^uint64(0)
	for i, t := range tags {
		if t == lineAddr {
			// Refill of a resident line (e.g. prefetch raced a demand
			// fill): keep the earlier readiness; the flags, owner and LRU
			// tick stay as they are.
			if readyAt < c.readyAt[base+i] {
				c.readyAt[base+i] = readyAt
			}
			return Eviction{}
		}
		if t == invalidTag {
			invalid = i
			continue
		}
		if u := meta[i] >> metaUseShift; u < minUse {
			minUse = u
			lru = i
		}
	}
	victim := base + lru
	if invalid >= 0 {
		victim = base + invalid
	}
	ev := Eviction{}
	if f := c.meta[victim]; f&flagValid != 0 {
		ev = Eviction{Valid: true, LineAddr: c.tags[victim], Dirty: f&flagDirty != 0, Prefetched: f&flagPrefetched != 0, Owner: metaOwner(f)}
		if f&flagPrefetched != 0 {
			c.Stats.PrefetchedEvictedUnused++
		}
	}
	c.useTick++
	c.tags[victim] = lineAddr
	c.readyAt[victim] = readyAt
	if !prefetched {
		c.meta[victim] = metaWord(flagValid, NoOwner, c.useTick)
		c.Stats.DemandFills++
	} else {
		c.meta[victim] = metaWord(flagValid|flagPrefetched, owner, c.useTick)
		c.Stats.PrefetchFills++
	}
	return ev
}

// MarkDirty sets the dirty bit on a resident line (store hit).
func (c *Cache) MarkDirty(lineAddr Line) {
	if i := c.find(lineAddr); i >= 0 {
		c.meta[i] |= flagDirty
	}
}

// Reset returns the cache to the state New builds: no lines, an empty MSHR
// file and zero statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.meta)
	clear(c.readyAt)
	c.useTick = 0
	c.mshr.Reset()
	c.Stats = Stats{}
}
