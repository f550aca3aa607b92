package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 90, true},
		{108, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileRefusesP90Below100Samples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 90); ok {
		t.Fatal("p90 of 99 samples was not refused")
	}
	if v, ok := percentile(xs, 50); !ok || v != 50 {
		t.Fatalf("p50 of 1..99 = %v, %v; want 50", v, ok)
	}
	xs = append(xs, 100)
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// Spans from two workers overlap each other and run past the parent; the
// parent's self time is what their union leaves uncovered.
func TestSelfTimeWithOverlappingWorkerSpans(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(10)}
	children := []interval{
		{at(1), at(4)},  // worker 1
		{at(2), at(6)},  // worker 2, overlapping worker 1
		{at(5), at(6)},  // worker 1 again, inside worker 2's span
		{at(8), at(12)}, // runs past the parent's end
		{at(-3), at(0)}, // ends where the parent starts
	}
	// Covered: [1,6) and [8,10) = 7ms of 10ms.
	if got := selfTime(parent, children); got != 3*time.Millisecond {
		t.Fatalf("self time = %v, want 3ms", got)
	}
	if got := selfTime(parent, nil); got != 10*time.Millisecond {
		t.Fatalf("self time without children = %v, want 10ms", got)
	}
}

func TestRatioBases(t *testing.T) {
	s := &specLayer{useful: 30, issued: 60, attempted: 100, filtered: 25}
	if r := usefulRatio(s); r != 0.5 {
		t.Errorf("useful_ratio = %v, want useful/issued = 0.5", r)
	}
	if r := filteredRatio(s); r != 0.25 {
		t.Errorf("filtered_ratio = %v, want filtered/attempted = 0.25", r)
	}
	if r := memoHitRatio(1765, 3083); r != 1765.0/3083 {
		t.Errorf("memo_hit_ratio = %v, want hits/jobs", r)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", r)
	}
}

func TestKeyField(t *testing.T) {
	key := "divlab.key/v1\nworkload=mix.a.b.c.d\nmulti=true\nseed=1\ninsts=80000\ncores=4\n"
	if v, err := keyField(key, "insts"); err != nil || v != 80000 {
		t.Errorf("insts = %v, %v", v, err)
	}
	if v, err := keyField(key, "cores"); err != nil || v != 4 {
		t.Errorf("cores = %v, %v", v, err)
	}
	if _, err := keyField(key, "rob"); err == nil {
		t.Error("missing field read without error")
	}
}
