package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"divlab/internal/cache"
	"divlab/internal/dram"
	"divlab/internal/obs"
)

func newH() *Hierarchy {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, dram.DropNone, 1)
	return NewHierarchy(cfg, sys)
}

func TestColdMissThenHit(t *testing.T) {
	h := newH()
	lat1, ev1 := h.Access(0x400, 0x1000, 0, false)
	if !ev1.MissL1 || !ev1.MissL2 {
		t.Fatalf("cold access must miss everywhere: %+v", ev1)
	}
	if lat1 < 100 {
		t.Errorf("cold miss latency %d suspiciously low", lat1)
	}
	lat2, ev2 := h.Access(0x400, 0x1000, lat1+10, false)
	if !ev2.HitL1 {
		t.Fatalf("second access must hit L1: %+v", ev2)
	}
	if lat2 != h.L1D.Config().LatCycles {
		t.Errorf("L1 hit latency %d", lat2)
	}
}

// TestInFlightMergeNotDoubleCounted: a second access to a line whose fetch
// is still in flight must merge (hit with a wait), not register another
// primary miss — the paper excludes such secondary misses from the
// footprint, and here they surface as waiting hits.
func TestInFlightMergeNotDoubleCounted(t *testing.T) {
	h := newH()
	lat1, ev1 := h.Access(0x400, 0x1000, 0, false)
	if !ev1.MissL1 {
		t.Fatal("first access must be a primary miss")
	}
	lat2, ev2 := h.Access(0x404, 0x1008, 5, false)
	if ev2.MissL1 {
		t.Error("in-flight line must not be a second primary miss")
	}
	if !ev2.HitL1 || lat2 <= h.L1D.Config().LatCycles {
		t.Errorf("merge must be a waiting hit: lat=%d ev=%+v", lat2, ev2)
	}
	if lat2+5 > lat1+h.L1D.Config().LatCycles {
		t.Errorf("merged access (%d@5) cannot finish after the fill (%d)", lat2, lat1)
	}
}

func TestL2HitPath(t *testing.T) {
	h := newH()
	h.Access(0x400, 0x2000, 0, false)
	// Evict from L1 by filling its set (L1: 256 sets 4 ways; same set every
	// 16 KB), keeping L2 resident.
	for i := uint64(1); i <= 4; i++ {
		h.Access(0x400, 0x2000+i*16384, 1000*i, false)
	}
	lat, ev := h.Access(0x400, 0x2000, 100_000, false)
	if ev.MissL2 || !ev.MissL1 {
		t.Fatalf("expected L1 miss, L2 hit: %+v", ev)
	}
	want := h.L1D.Config().LatCycles + h.L2.Config().LatCycles
	if lat != want {
		t.Errorf("L2 hit latency %d, want %d", lat, want)
	}
}

func TestPrefetchToL1ThenDemandHits(t *testing.T) {
	h := newH()
	if !h.Prefetch(0x3000, L1, 1, 3, 0) {
		t.Fatal("prefetch must issue")
	}
	_, ev := h.Access(0x400, 0x3000, 10_000, false)
	if !ev.HitL1 || !ev.PrefetchHitL1 || ev.OwnerL1 != 1 {
		t.Errorf("demand on prefetched line: %+v", ev)
	}
	if h.Stats.PrefetchesIssued != 1 {
		t.Errorf("issued = %d", h.Stats.PrefetchesIssued)
	}
}

func TestPrefetchToL2DoesNotFillL1(t *testing.T) {
	h := newH()
	h.Prefetch(0x4000, L2, 2, 1, 0)
	_, ev := h.Access(0x400, 0x4000, 10_000, false)
	if ev.HitL1 {
		t.Error("L2-destined prefetch must not hit in L1")
	}
	if !ev.PrefetchHitL2 || ev.OwnerL2 != 2 {
		t.Errorf("expected L2 prefetch hit: %+v", ev)
	}
}

func TestRedundantPrefetchFiltered(t *testing.T) {
	h := newH()
	h.Access(0x400, 0x5000, 0, false)
	if h.Prefetch(0x5000, L1, 1, 3, 500) {
		t.Error("prefetch of resident line must be filtered")
	}
	if h.Stats.PrefetchesFiltered != 1 {
		t.Errorf("filtered = %d", h.Stats.PrefetchesFiltered)
	}
}

func TestLatePrefetchWaits(t *testing.T) {
	h := newH()
	h.Prefetch(0x6000, L1, 1, 3, 0)
	// Demand immediately after issue: the line is still in flight.
	lat, ev := h.Access(0x400, 0x6000, 1, false)
	if !ev.HitL1 {
		t.Fatalf("in-flight prefetched line must register as (waiting) hit: %+v", ev)
	}
	if lat <= h.L1D.Config().LatCycles {
		t.Errorf("late prefetch must add wait, lat=%d", lat)
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := newH()
	// Dirty a line, then force it down the hierarchy by filling conflicting
	// lines through all levels.
	h.Access(0x400, 0x0, 0, true)
	before := h.System().Mem.Stats.Writes
	// L1 set conflict stride is 16KB; L2's is 2KB*... generate enough
	// conflicting fills to push the dirty line out of L1, L2 and L3.
	for i := uint64(1); i < 40; i++ {
		h.Access(0x400, i*16384, 10_000*i, false)
	}
	// L3 is 2MB 16-way: 16384-stride lines share L3 sets every 2MB... force
	// more evictions via many distinct lines in the same L1/L2 sets.
	for i := uint64(40); i < 600; i++ {
		h.Access(0x400, i*16384, 10_000*i, false)
	}
	after := h.System().Mem.Stats.Writes
	if after == before {
		t.Error("dirty line never wrote back to memory")
	}
}

func TestMemLatTracksFetches(t *testing.T) {
	h := newH()
	if h.MemLat() != 200 {
		t.Errorf("initial MemLat = %d", h.MemLat())
	}
	for i := uint64(0); i < 100; i++ {
		h.Access(0x400, i*64*257, i*500, false)
	}
	if h.MemLat() < 50 || h.MemLat() > 2000 {
		t.Errorf("MemLat after misses = %d, implausible", h.MemLat())
	}
}

func TestEventCarriesMemLat(t *testing.T) {
	h := newH()
	_, ev := h.Access(0x400, 0x9000, 0, false)
	if ev.MemLat == 0 {
		t.Error("event must carry the fetch-latency estimate")
	}
}

// randomTraffic drives h with seeded demand accesses, stores and prefetches
// to every level, crowding a few sets so lines evict and write back.
func randomTraffic(rng *rand.Rand, h *Hierarchy, n int) {
	at := uint64(0)
	for i := 0; i < n; i++ {
		at += uint64(rng.Intn(6))
		addr := uint64(rng.Intn(1<<14)) * cache.LineBytes * 64
		if rng.Intn(3) == 0 {
			h.Prefetch(ToLine(addr), Level(rng.Intn(3)), 1+rng.Intn(3), rng.Intn(3), at-uint64(rng.Intn(int(min(at, 30))+1)))
			continue
		}
		h.Access(0x400+uint64(rng.Intn(8)), addr, at, rng.Intn(4) == 0)
	}
}

// TestHierarchyReset: after seeded random traffic with a lifecycle tracker
// attached, Reset leaves a hierarchy deeply equal to a fresh one over the
// same system, tracker detached: a reused hierarchy must neither behave
// differently nor record into the previous run's tracker.
func TestHierarchyReset(t *testing.T) {
	cfg := DefaultConfig(1)
	sys := NewSystem(cfg, dram.DropNone, 1)
	h := NewHierarchy(cfg, sys)
	h.Trace = obs.NewLifecycle(3)
	randomTraffic(rand.New(rand.NewSource(1)), h, 20000)
	if h.Stats.Writebacks == 0 || h.Stats.PrefetchesIssued == 0 {
		t.Fatalf("traffic wrote nothing back or issued no prefetch: %+v", h.Stats)
	}
	h.Reset()
	if fresh := NewHierarchy(cfg, sys); !reflect.DeepEqual(h, fresh) {
		t.Errorf("Reset hierarchy differs from a fresh one: stats %+v trace %v", h.Stats, h.Trace != nil)
	}
}

// TestSystemReset: after seeded random traffic through two cores, Reset
// leaves the shared L3 and DRAM deeply equal to a fresh system built with
// the new drop policy and seed.
func TestSystemReset(t *testing.T) {
	cfg := DefaultConfig(2)
	sys := NewSystem(cfg, dram.DropRandomPrefetch, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2; i++ {
		randomTraffic(rng, NewHierarchy(cfg, sys), 20000)
	}
	if sys.Mem.Stats.DroppedPrefetches == 0 && sys.Mem.Stats.PrefetchReads == 0 {
		t.Fatalf("traffic sent no prefetch to DRAM: %+v", sys.Mem.Stats)
	}
	sys.Reset(dram.DropLowPriorityPrefetch, 9)
	if fresh := NewSystem(cfg, dram.DropLowPriorityPrefetch, 9); !reflect.DeepEqual(sys, fresh) {
		t.Errorf("Reset system differs from a fresh one: L3 %+v DRAM %+v", sys.L3.Stats, sys.Mem.Stats)
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || L3.String() != "L3" || Level(9).String() != "?" {
		t.Error("Level.String broken")
	}
}

func TestNoOwnerOnDemandFill(t *testing.T) {
	h := newH()
	h.Access(0x400, 0xA000, 0, false)
	r := h.L1D.Lookup(0xA000, 10_000)
	if r.WasPrefetched || r.Owner != cache.NoOwner {
		t.Errorf("demand fill must not carry prefetch ownership: %+v", r)
	}
}
