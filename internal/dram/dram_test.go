package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"divlab/internal/cache"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	c := NewController(DDR3Default(), DropNone, 1)
	lat1, dropped := c.Access(Request{LineAddr: 0}, 0)
	if dropped {
		t.Fatal("demand must not be dropped")
	}
	// Same row, later in time: row hit.
	lat2, _ := c.Access(Request{LineAddr: 0}, 10_000)
	if lat2 >= lat1 {
		t.Errorf("row hit (%d) must be faster than row miss (%d)", lat2, lat1)
	}
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 1 {
		t.Errorf("row stats %+v", c.Stats)
	}
}

func TestRowConflictSlower(t *testing.T) {
	cfg := DDR3Default()
	c := NewController(cfg, DropNone, 1)
	// Two line addresses in the same bank but different rows: route keeps
	// channel/bank from low line bits, row from high bits.
	sameBankStride := cache.LineAt(uint64(cfg.Channels) * uint64(cfg.RanksPerChan*cfg.BanksPerRank) * uint64(cfg.RowBytes) / cache.LineBytes)
	c.Access(Request{LineAddr: 0}, 0)
	lat, _ := c.Access(Request{LineAddr: sameBankStride}, 100_000)
	hit, _ := c.Access(Request{LineAddr: sameBankStride + 64}, 200_000)
	if lat <= hit {
		t.Errorf("row conflict (%d) must be slower than row hit (%d)", lat, hit)
	}
	if c.Stats.RowConflicts != 1 {
		t.Errorf("conflicts %+v", c.Stats)
	}
}

func TestBusSerialization(t *testing.T) {
	c := NewController(DDR3Default(), DropNone, 1)
	var last uint64
	// A burst of simultaneous requests to one channel must serialize on the
	// data bus: each later one observes a strictly larger latency.
	for i := 0; i < 8; i++ {
		lineAddr := cache.LineAt(uint64(i) * 2) // stride 2 lines keeps channel 0
		lat, _ := c.Access(Request{LineAddr: lineAddr}, 0)
		if lat < last {
			t.Errorf("burst request %d latency %d < previous %d", i, lat, last)
		}
		last = lat
	}
}

func TestPrefetchShedUnderBacklog(t *testing.T) {
	cfg := DDR3Default()
	c := NewController(cfg, DropNone, 1)
	// Saturate one channel far beyond the queue depth.
	for i := 0; i < cfg.QueueDepth*4; i++ {
		c.Access(Request{LineAddr: cache.LineAt(uint64(i) * 2)}, 0)
	}
	_, dropped := c.Access(Request{LineAddr: 999 * 128, Prefetch: true}, 0)
	if !dropped {
		t.Error("prefetch must be shed under deep backlog")
	}
	if c.Stats.DroppedPrefetches == 0 {
		t.Error("drop not counted")
	}
	// Demands still get through.
	if _, d := c.Access(Request{LineAddr: 1000 * 128}, 0); d {
		t.Error("demand must never be dropped")
	}
}

func TestLowPriorityShedFirst(t *testing.T) {
	cfg := DDR3Default()
	c := NewController(cfg, DropLowPriorityPrefetch, 1)
	// Build a backlog just above half the queue depth.
	for i := 0; i < cfg.QueueDepth/2+4; i++ {
		c.Access(Request{LineAddr: cache.LineAt(uint64(i) * 2)}, 0)
	}
	_, droppedLow := c.Access(Request{LineAddr: 500 * 128, Prefetch: true, Priority: 1}, 0)
	_, droppedHigh := c.Access(Request{LineAddr: 501 * 128, Prefetch: true, Priority: 3}, 0)
	if !droppedLow {
		t.Error("low-priority prefetch must be shed at half depth")
	}
	if droppedHigh {
		t.Error("high-priority prefetch must survive moderate backlog")
	}
}

func TestTrafficCounting(t *testing.T) {
	c := NewController(DDR3Default(), DropNone, 1)
	c.Access(Request{LineAddr: 0}, 0)
	c.Access(Request{LineAddr: 64, Write: true}, 0)
	c.Access(Request{LineAddr: 128, Prefetch: true}, 0)
	if c.Stats.Reads != 2 || c.Stats.Writes != 1 || c.Stats.PrefetchReads != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
	if c.Stats.Lines() != 3 {
		t.Errorf("Lines = %d", c.Stats.Lines())
	}
}

func TestChannelRouting(t *testing.T) {
	cfg := DDR3Default()
	c := NewController(cfg, DropNone, 1)
	// Consecutive lines alternate channels: saturating even lines must not
	// shed a prefetch to an odd line.
	for i := 0; i < cfg.QueueDepth*4; i++ {
		c.Access(Request{LineAddr: cache.LineAt(uint64(i) * 2)}, 0) // channel 0
	}
	_, dropped := c.Access(Request{LineAddr: 64, Prefetch: true}, 0) // channel 1
	if dropped {
		t.Error("other channel must be unaffected by backlog")
	}
}

// TestNewControllerRefusesBadGeometry: NewController accepts Table I's
// geometry and panics on a non-positive channel, rank or bank count and on
// a channel, bank-per-channel or line-per-row count that is not a power of
// two, which route's shifts and masks could not map.
func TestNewControllerRefusesBadGeometry(t *testing.T) {
	NewController(DDR3Default(), DropNone, 1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = 0 }},
		{"no ranks", func(c *Config) { c.RanksPerChan = 0 }},
		{"negative banks", func(c *Config) { c.BanksPerRank = -8 }},
		{"3 channels", func(c *Config) { c.Channels = 3 }},
		{"6 banks per channel", func(c *Config) { c.RanksPerChan, c.BanksPerRank = 2, 3 }},
		{"3 lines per row", func(c *Config) { c.RowBytes = 3 * cache.LineBytes }},
		{"row shorter than a line", func(c *Config) { c.RowBytes = cache.LineBytes / 2 }},
	} {
		cfg := DDR3Default()
		tc.edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewController(%+v) did not panic", tc.name, cfg)
				}
			}()
			NewController(cfg, DropNone, 1)
		}()
	}
}

// TestReset: after seeded random traffic under every policy, Reset leaves
// a controller deeply equal to a fresh one built with the new policy and
// seed, random stream included, so a reused controller sheds exactly the
// prefetches a new one would.
func TestReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, policy := range []DropPolicy{DropNone, DropRandomPrefetch, DropLowPriorityPrefetch} {
		c := NewController(DDR3Default(), policy, 1)
		at := uint64(0)
		for i := 0; i < 5000; i++ {
			at += uint64(rng.Intn(8))
			c.Access(Request{
				LineAddr: cache.LineAt(uint64(rng.Intn(1 << 16))),
				Write:    rng.Intn(8) == 0,
				Prefetch: rng.Intn(2) == 0,
				Priority: rng.Intn(3),
			}, at)
		}
		if c.Stats.DroppedPrefetches == 0 {
			t.Fatalf("policy %d: the traffic never shed a prefetch", policy)
		}
		next := DropPolicy(rng.Intn(3))
		c.Reset(next, 7)
		if fresh := NewController(DDR3Default(), next, 7); !reflect.DeepEqual(c, fresh) {
			t.Errorf("policy %d: Reset(%d, 7) = %+v, fresh controller %+v", policy, next, c, fresh)
		}
	}
}

func TestDeterministicRandomDrop(t *testing.T) {
	run := func() uint64 {
		c := NewController(DDR3Default(), DropRandomPrefetch, 7)
		for i := 0; i < 200; i++ {
			c.Access(Request{LineAddr: cache.LineAt(uint64(i) * 2), Prefetch: i%2 == 0}, 0)
		}
		return c.Stats.DroppedPrefetches
	}
	if run() != run() {
		t.Error("same seed must drop deterministically")
	}
}

// TestDropNoneShedsLikeRandom: under one seeded request stream, whose
// timestamps sometimes go backwards, DropNone and DropRandomPrefetch return
// the same latencies, shed the same prefetches and count the same Stats.
// The runner answers a run under one policy from the same run under the
// other, so a change that sets them apart must fail here, by name.
func TestDropNoneShedsLikeRandom(t *testing.T) {
	none := NewController(DDR3Default(), DropNone, 7)
	random := NewController(DDR3Default(), DropRandomPrefetch, 7)
	rng := rand.New(rand.NewSource(3))
	at := uint64(1000)
	for i := 0; i < 20_000; i++ {
		if rng.Intn(16) == 0 {
			at -= min(at, uint64(rng.Intn(300)))
		} else {
			at += uint64(rng.Intn(8))
		}
		r := Request{
			LineAddr: cache.LineAt(uint64(rng.Intn(1 << 14))),
			Write:    rng.Intn(8) == 0,
			Prefetch: rng.Intn(2) == 0,
			Owner:    rng.Intn(4),
			Priority: rng.Intn(4),
		}
		ln, dn := none.Access(r, at)
		lr, dr := random.Access(r, at)
		if ln != lr || dn != dr {
			t.Fatalf("request %d %+v at %d: DropNone gives latency %d dropped %t, DropRandomPrefetch %d %t", i, r, at, ln, dn, lr, dr)
		}
	}
	if none.Stats != random.Stats {
		t.Errorf("stats differ: DropNone %+v, DropRandomPrefetch %+v", none.Stats, random.Stats)
	}
	if none.Stats.DroppedPrefetches == 0 {
		t.Error("the stream never shed a prefetch")
	}
}
