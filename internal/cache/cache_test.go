package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Name: "T", SizeBytes: 8 << 10, Ways: 4, LatCycles: 3, MSHRs: 8}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SizeBytes = 0
	if bad.Validate() == nil {
		t.Error("zero size must fail")
	}
	bad = good
	bad.Ways = 3 // 8KB/(3*64) not a power-of-two set count
	if bad.Validate() == nil {
		t.Error("non-power-of-two sets must fail")
	}
	bad = good
	bad.MSHRs = 0
	if bad.Validate() == nil {
		t.Error("zero MSHRs must fail")
	}
	bad = good
	bad.MSHRs = MaxMSHRs + 1
	if bad.Validate() == nil {
		t.Error("more than MaxMSHRs MSHRs must fail")
	}
}

func TestFillThenLookupHits(t *testing.T) {
	c := New(testConfig())
	c.Fill(0x1000, 0, false, NoOwner)
	r := c.Lookup(0x1000, 10)
	if !r.Hit || r.ExtraWait != 0 {
		t.Errorf("expected settled hit, got %+v", r)
	}
	if r2 := c.Lookup(0x2000, 10); r2.Hit {
		t.Error("unknown line must miss")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestLateFillWait(t *testing.T) {
	c := New(testConfig())
	c.Fill(0x1000, 100, true, 2)
	r := c.Lookup(0x1000, 60)
	if !r.Hit || r.ExtraWait != 40 {
		t.Errorf("late prefetch hit must wait 40, got %+v", r)
	}
	if !r.WasPrefetched || r.Owner != 2 {
		t.Errorf("prefetch mark/owner lost: %+v", r)
	}
	// Second lookup: prefetched flag consumed.
	r2 := c.Lookup(0x1000, 200)
	if r2.WasPrefetched || r2.ExtraWait != 0 {
		t.Errorf("second hit must be settled demand: %+v", r2)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 4 * 64, Ways: 4, LatCycles: 1, MSHRs: 2} // 1 set
	c := New(cfg)
	for i := uint64(0); i < 4; i++ {
		c.Fill(LineAt(i), 0, false, NoOwner)
	}
	c.Lookup(0, 1) // line 0 becomes MRU
	ev := c.Fill(LineAt(4), 0, false, NoOwner)
	if !ev.Valid {
		t.Fatal("full set must evict")
	}
	if ev.LineAddr == 0 {
		t.Error("MRU line must not be the victim")
	}
	if !c.Contains(0) {
		t.Error("MRU line must survive")
	}
}

func TestEvictionReportsDirtyAndPrefetched(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, LatCycles: 1, MSHRs: 2}
	c := New(cfg)
	c.Fill(0, 0, true, 5)
	c.Fill(64*2, 0, false, NoOwner) // same set (1 set)... SizeBytes/(64*2)=1 set
	c.MarkDirty(64 * 2)
	ev := c.Fill(64*4, 0, false, NoOwner)
	if !ev.Valid {
		t.Fatal("expected eviction")
	}
	// The unused prefetched line (LRU) goes first.
	if ev.LineAddr != 0 || !ev.Prefetched || ev.Owner != 5 {
		t.Errorf("eviction %+v", ev)
	}
	if c.Stats.PrefetchedEvictedUnused != 1 {
		t.Errorf("PrefetchedEvictedUnused = %d", c.Stats.PrefetchedEvictedUnused)
	}
	ev2 := c.Fill(64*6, 0, false, NoOwner)
	if !ev2.Valid || !ev2.Dirty {
		t.Errorf("dirty eviction lost: %+v", ev2)
	}
}

func TestRefillKeepsEarlierReadiness(t *testing.T) {
	c := New(testConfig())
	c.Fill(0x40, 100, true, 1)
	c.Fill(0x40, 50, true, 1) // refill with earlier readiness wins
	if r := c.Lookup(0x40, 75); r.ExtraWait != 0 {
		t.Errorf("refill must keep earlier readiness, wait=%d", r.ExtraWait)
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2, LatCycles: 1, MSHRs: 2}
	c := New(cfg)
	c.Fill(0, 0, false, NoOwner)
	c.Fill(64, 0, false, NoOwner)
	c.Touch(0) // 0 becomes MRU
	ev := c.Fill(128, 0, false, NoOwner)
	if ev.LineAddr != 64 {
		t.Errorf("Touch did not refresh LRU; evicted %#x", ev.LineAddr)
	}
}

// TestReset: after seeded random operations on a cache and its MSHR file,
// Reset leaves a value deeply equal to a fresh cache, so a reused cache
// behaves exactly as a new one. The lines crowd a few sets and collide in
// mshrHash, and the operations must dirty the MSHR's scan-miss counter, or
// the comparison could not see it.
func TestReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	c := New(cfg)
	pool := make([]Line, 64)
	for i := range pool {
		pool[i] = LineAt(uint64(rng.Intn(512)))
	}
	at := uint64(1)
	for op := 0; op < 20000 || c.mshr.scanMiss == 0; op++ {
		if op == 100000 {
			t.Fatal("operations left scanMiss zero")
		}
		at += uint64(rng.Intn(4))
		l := pool[rng.Intn(len(pool))]
		switch rng.Intn(6) {
		case 0:
			c.Lookup(l, at)
		case 1:
			c.Fill(l, at+uint64(rng.Intn(200)), rng.Intn(2) == 0, rng.Intn(4)-1)
		case 2:
			c.Touch(l)
		case 3:
			c.MarkDirty(l)
		case 4:
			if _, pending, adm := c.MSHR().PendingOrNextFree(l, at, at+uint64(rng.Intn(50))); !pending {
				c.MSHR().Allocate(l, adm, adm+1+uint64(rng.Intn(200)))
			}
		case 5:
			c.MSHR().Pending(l, at)
		}
	}
	c.Reset()
	if fresh := New(cfg); !reflect.DeepEqual(c, fresh) {
		t.Errorf("Reset cache differs from a fresh one:\n got %+v\nwant %+v", c.mshr, fresh.mshr)
	}
}

// Property: after filling any address, Contains reports it until evicted by
// ways+1 conflicting fills to the same set.
func TestFillContainsProperty(t *testing.T) {
	cfg := testConfig()
	f := func(raw uint64) bool {
		c := New(cfg)
		line := ToLine(raw % (1 << 30))
		c.Fill(line, 0, false, NoOwner)
		return c.Contains(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total hits+misses equals accesses.
func TestStatsBalanceProperty(t *testing.T) {
	c := New(testConfig())
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			line := ToLine(a % (1 << 20))
			if !c.Lookup(line, 0).Hit {
				c.Fill(line, 0, false, NoOwner)
			}
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refWay is one way of refCache, every field stored on its own.
type refWay struct {
	line                     Line
	valid, dirty, prefetched bool
	owner                    int
	readyAt, lastUse         uint64
}

// refCache is the naive cache Cache must be observably equal to: a per-set
// array of ways searched in order, with a last-use tick per way for LRU.
type refCache struct {
	sets  [][]refWay
	tick  uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{sets: make([][]refWay, cfg.Sets())}
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Ways)
	}
	return r
}

func (r *refCache) set(l Line) []refWay { return r.sets[l.Index()%uint64(len(r.sets))] }

// way returns l's way, or nil when l is not resident.
func (r *refCache) way(l Line) *refWay {
	set := r.set(l)
	for i := range set {
		if set[i].valid && set[i].line == l {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) lookup(l Line, at uint64) LookupResult {
	r.stats.Accesses++
	w := r.way(l)
	if w == nil {
		r.stats.Misses++
		return LookupResult{}
	}
	r.stats.Hits++
	r.tick++
	w.lastUse = r.tick
	res := LookupResult{Hit: true, Owner: w.owner}
	if w.readyAt > at {
		res.ExtraWait = w.readyAt - at
	}
	if w.prefetched {
		w.prefetched = false
		res.WasPrefetched = true
		r.stats.PrefetchHits++
	}
	return res
}

func (r *refCache) touch(l Line) {
	if w := r.way(l); w != nil {
		r.tick++
		w.lastUse = r.tick
	}
}

func (r *refCache) markDirty(l Line) {
	if w := r.way(l); w != nil {
		w.dirty = true
	}
}

// fill installs l in its set's last empty way or, in a full set, the least
// recently used way, the lowest one on a tie. A refill of a resident line
// only lowers its readyAt.
func (r *refCache) fill(l Line, readyAt uint64, prefetched bool, owner int) Eviction {
	if w := r.way(l); w != nil {
		w.readyAt = min(w.readyAt, readyAt)
		return Eviction{}
	}
	set := r.set(l)
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	v := &set[victim]
	var ev Eviction
	if v.valid {
		ev = Eviction{Valid: true, LineAddr: v.line, Dirty: v.dirty, Prefetched: v.prefetched, Owner: v.owner}
		if v.prefetched {
			r.stats.PrefetchedEvictedUnused++
		}
	}
	r.tick++
	*v = refWay{line: l, valid: true, prefetched: prefetched, owner: NoOwner, readyAt: readyAt, lastUse: r.tick}
	if prefetched {
		v.owner = owner
		r.stats.PrefetchFills++
	} else {
		r.stats.DemandFills++
	}
	return ev
}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// operations on small geometries (1 to 16 sets, 1 to 16 ways) and requires
// equal results after each, and equal Stats. Lines crowd the sets, so fills
// evict and refill resident lines; lookups run at timestamps that sometimes
// go backwards; fills are demand or prefetch, with owners.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := 500
	if testing.Short() {
		seqs = 50
	}
	for seq := range seqs {
		sets, ways := 1<<rng.Intn(5), []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)]
		cfg := Config{Name: "ref", SizeBytes: sets * ways * LineBytes, Ways: ways, LatCycles: 1, MSHRs: 1}
		c, ref := New(cfg), newRefCache(cfg)
		pool := make([]Line, sets*ways+1+rng.Intn(2*sets*ways))
		for i := range pool {
			pool[i] = LineAt(uint64(rng.Intn(4 * len(pool))))
		}
		now := uint64(1000)
		for op := range 2000 {
			fail := func(what string, got, want any) {
				t.Fatalf("sequence %d (%d sets × %d ways), op %d: %s = %+v, reference %+v", seq, sets, ways, op, what, got, want)
			}
			now += uint64(rng.Intn(8))
			if rng.Intn(20) == 0 {
				now -= min(now, uint64(rng.Intn(300)))
			}
			l := pool[rng.Intn(len(pool))]
			switch rng.Intn(7) {
			case 0, 1:
				if got, want := c.Lookup(l, now), ref.lookup(l, now); got != want {
					fail("Lookup", got, want)
				}
			case 2:
				if got, want := c.Contains(l), ref.way(l) != nil; got != want {
					fail("Contains", got, want)
				}
			case 3:
				c.Touch(l)
				ref.touch(l)
			case 4:
				c.MarkDirty(l)
				ref.markDirty(l)
			default:
				readyAt := now - min(now, 100) + uint64(rng.Intn(400))
				pf, owner := rng.Intn(2) == 0, rng.Intn(6)-1
				if got, want := c.Fill(l, readyAt, pf, owner), ref.fill(l, readyAt, pf, owner); got != want {
					fail("Fill", got, want)
				}
			}
			if c.Stats != ref.stats {
				fail("Stats", c.Stats, ref.stats)
			}
		}
	}
}
