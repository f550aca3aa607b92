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
// mshrHash, and the operations must dirty the MSHR's scan-miss counter and
// sweep timestamp, or the comparison could not see them.
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
			t.Fatalf("operations left scanMiss=%d lastFreeAt=%d", c.mshr.scanMiss, c.mshr.lastFreeAt)
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
				c.MSHR().Allocate(l, adm, adm+1+uint64(rng.Intn(200)), false)
			}
		case 5:
			c.MSHR().Pending(l, at)
		}
	}
	if c.mshr.lastFreeAt == 0 {
		t.Fatal("operations left lastFreeAt zero")
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
