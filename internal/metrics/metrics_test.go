package metrics

import (
	"math/rand"
	"slices"
	"testing"

	"divlab/internal/cpu"
	"divlab/internal/mem"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// column returns m as a footprint's sorted columns.
func column(m map[mem.Line]uint32) sim.Footprint {
	var f sim.Footprint
	for line := range m {
		f.Lines = append(f.Lines, line)
	}
	slices.Sort(f.Lines)
	for _, line := range f.Lines {
		f.Vals = append(f.Vals, m[line])
	}
	return f
}

// mkResult builds a synthetic sim.Result for metric math tests.
func mkResult(misses map[mem.Line]uint32, l1Misses, l2Misses, issued uint64, attempted []mem.Line) *sim.Result {
	each := map[mem.Line]uint32{}
	for _, a := range attempted {
		each[a] = 1
	}
	r := &sim.Result{
		Core:        cpu.Result{Insts: 1000, Cycles: 1000},
		L1Misses:    l1Misses,
		L2Misses:    l2Misses,
		Issued:      issued,
		MissL1Lines: column(misses),
		Attempted:   column(each),
		IssuedLines: column(each),
	}
	r.IssuedDest[0] = issued // tests model L1-destined prefetchers
	return r
}

func TestScopeWeighted(t *testing.T) {
	base := mkResult(map[mem.Line]uint32{0: 3, 64: 1}, 4, 0, 0, nil)
	pf := mkResult(nil, 1, 0, 2, []mem.Line{0})
	p := Pair{Base: base, PF: pf}
	// Covered weight 3 of total 4.
	if s := p.Scope(); s != 0.75 {
		t.Errorf("Scope = %v, want 0.75", s)
	}
}

func TestEffAccuracyAndCoverage(t *testing.T) {
	base := mkResult(map[mem.Line]uint32{0: 10}, 10, 6, 0, nil)
	pf := mkResult(map[mem.Line]uint32{0: 2}, 2, 2, 16, []mem.Line{0})
	p := Pair{Base: base, PF: pf}
	if a := p.EffAccuracyL1(); a != 0.5 {
		t.Errorf("EffAccuracyL1 = %v, want (10-2)/16", a)
	}
	if a := p.EffAccuracyL2(); a != 0.25 {
		t.Errorf("EffAccuracyL2 = %v, want (6-2)/16", a)
	}
	if c := p.CoverageL1(); c != 0.8 {
		t.Errorf("CoverageL1 = %v", c)
	}
	if c := p.CoverageL2(); c < 0.66 || c > 0.67 {
		t.Errorf("CoverageL2 = %v", c)
	}
}

func TestEffAccuracyCanBeNegative(t *testing.T) {
	// Pollution: more misses with the prefetcher than without.
	base := mkResult(nil, 10, 0, 0, nil)
	pf := mkResult(nil, 30, 0, 10, nil)
	if a := (Pair{Base: base, PF: pf}).EffAccuracyL1(); a != -2 {
		t.Errorf("negative accuracy = %v, want -2", a)
	}
}

func TestZeroGuards(t *testing.T) {
	empty := mkResult(nil, 0, 0, 0, nil)
	p := Pair{Base: empty, PF: empty}
	if p.Scope() != 0 || p.EffAccuracyL1() != 0 || p.CoverageL1() != 0 || p.TrafficNorm() != 0 || p.Speedup() == 0 {
		// Speedup of identical results is 1.
		if p.Speedup() != 1 {
			t.Error("zero guards broken")
		}
	}
}

func TestByCategory(t *testing.T) {
	classify := func(line mem.Line) workloads.Category {
		if line < 1000 {
			return workloads.LHF
		}
		return workloads.HHF
	}
	base := mkResult(map[mem.Line]uint32{0: 4, 2048: 4}, 8, 0, 0, nil)
	base.CatL1Misses[workloads.LHF] = 4
	base.CatL1Misses[workloads.HHF] = 4
	pf := mkResult(map[mem.Line]uint32{2048: 4}, 4, 0, 8, []mem.Line{0})
	pf.CatL1Misses[workloads.HHF] = 4
	pf.CatIssued[workloads.LHF] = 8
	pf.CatIssuedL1[workloads.LHF] = 8
	p := Pair{Base: base, PF: pf}
	cats := p.ByCategory(classify)
	if cats[workloads.LHF].Scope != 1 {
		t.Errorf("LHF scope = %v", cats[workloads.LHF].Scope)
	}
	if cats[workloads.HHF].Scope != 0 {
		t.Errorf("HHF scope = %v", cats[workloads.HHF].Scope)
	}
	if cats[workloads.LHF].EffAccuracy != 0.5 {
		t.Errorf("LHF accuracy = %v, want (4-0)/8", cats[workloads.LHF].EffAccuracy)
	}
}

func TestUncoveredAndRegionStats(t *testing.T) {
	base := mkResult(map[mem.Line]uint32{0: 2, 64: 2, 128: 2}, 6, 0, 0, nil)
	tpcRun := mkResult(nil, 2, 0, 4, []mem.Line{0, 64})
	region := Uncovered(base, tpcRun)
	if !slices.Equal(region, Region{128}) {
		t.Fatalf("Uncovered = %v", region)
	}
	// An extra that attempts line 128 and removes its misses.
	extra := mkResult(map[mem.Line]uint32{0: 2, 64: 2}, 4, 0, 3, []mem.Line{128})
	rs := (Pair{Base: base, PF: extra}).InRegion(region)
	if rs.Scope != 1 {
		t.Errorf("region scope = %v", rs.Scope)
	}
	if rs.Prefetches != 1 {
		t.Errorf("region prefetches = %d", rs.Prefetches)
	}
	if rs.EffAccuracy != 2 {
		t.Errorf("region accuracy = %v, want (2-0)/1", rs.EffAccuracy)
	}
}

// TestJoinsMatchMapProbes holds the merge joins to the map probes they
// replaced, on random footprints whose lines interleave, overlap in part and
// leave either side's tail unmatched.
func TestJoinsMatchMapProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) map[mem.Line]uint32 {
		m := map[mem.Line]uint32{}
		for len(m) < n {
			m[mem.Line(rng.Intn(4*n))*64] = uint32(rng.Intn(5) + 1)
		}
		return m
	}
	classify := func(line mem.Line) workloads.Category {
		return workloads.Category(int(line/64) % workloads.NumCategories)
	}
	for trial := 0; trial < 50; trial++ {
		baseMiss, ref, pfMiss, att, iss := random(200), random(150), random(120), random(150), random(100)
		base := &sim.Result{MissL1Lines: column(baseMiss)}
		refRun := &sim.Result{Attempted: column(ref)}
		pf := &sim.Result{MissL1Lines: column(pfMiss), Attempted: column(att), IssuedLines: column(iss)}
		p := Pair{Base: base, PF: pf}

		var wantCovered, wantTotal uint64
		var wantCat [workloads.NumCategories][2]uint64
		wantRegion := map[mem.Line]bool{}
		for line, w := range baseMiss {
			wantTotal += uint64(w)
			c := classify(line)
			wantCat[c][1] += uint64(w)
			if _, ok := att[line]; ok {
				wantCovered += uint64(w)
				wantCat[c][0] += uint64(w)
			}
			if _, ok := ref[line]; !ok {
				wantRegion[line] = true
			}
		}
		if c, tot := p.ScopeWeights(); c != wantCovered || tot != wantTotal {
			t.Fatalf("ScopeWeights = %d/%d, want %d/%d", c, tot, wantCovered, wantTotal)
		}
		for c, cs := range p.ByCategory(classify) {
			if want := float64(wantCat[c][0]) / float64(wantCat[c][1]); wantCat[c][1] > 0 && cs.Scope != want {
				t.Fatalf("category %d scope = %v, want %v", c, cs.Scope, want)
			}
		}
		region := Uncovered(base, refRun)
		if len(region) != len(wantRegion) || !slices.IsSorted(region) {
			t.Fatalf("Uncovered has %d lines (sorted %v), want %d", len(region), slices.IsSorted(region), len(wantRegion))
		}
		var rCovered, rTotal uint64
		var rMiss, rIssued int64
		for _, line := range region {
			if !wantRegion[line] {
				t.Fatalf("Uncovered holds line %d, which the reference attempted", line)
			}
			w := uint64(baseMiss[line])
			rTotal += w
			if _, ok := att[line]; ok {
				rCovered += w
			}
			rMiss += int64(pfMiss[line])
			rIssued += int64(iss[line])
		}
		got := p.InRegion(region)
		want := RegionStats{Prefetches: uint64(rIssued)}
		if rTotal > 0 {
			want.Scope = float64(rCovered) / float64(rTotal)
		}
		if rIssued > 0 {
			want.EffAccuracy = float64(int64(rTotal)-rMiss) / float64(rIssued)
		}
		if got != want {
			t.Fatalf("InRegion = %+v, want %+v", got, want)
		}
	}
}

// TestEndToEndMetrics sanity-checks the full pipeline on a real workload:
// TPC on a pure stream must show high scope, positive accuracy and coverage.
func TestEndToEndMetrics(t *testing.T) {
	w, _ := workloads.ByName("stream.pure")
	cfg := sim.DefaultConfig(100_000)
	cfg.CollectFootprint = true
	base := sim.RunSingle(w, nil, cfg)
	tpc, _ := sim.ByName("tpc")
	r := sim.RunSingle(w, tpc.Factory, cfg)
	p := Pair{Base: base, PF: r}
	if s := p.Scope(); s < 0.5 {
		t.Errorf("TPC scope on pure stream = %v", s)
	}
	if a := p.EffAccuracyL1(); a < 0.5 {
		t.Errorf("TPC accuracy on pure stream = %v", a)
	}
	if c := p.CoverageL1(); c < 0.5 {
		t.Errorf("TPC coverage on pure stream = %v", c)
	}
	if sp := p.Speedup(); sp < 1.1 {
		t.Errorf("TPC speedup = %v", sp)
	}
}
