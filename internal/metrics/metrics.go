// Package metrics computes the paper's evaluation quantities from paired
// simulation runs (no-prefetch baseline vs prefetcher under test):
//
//   - scope S(P): the weighted fraction of the baseline miss footprint the
//     prefetcher *attempted* to cover (Sec. III),
//   - effective accuracy: misses avoided per prefetch issued — negative when
//     pollution adds more misses than the prefetcher removes,
//   - effective coverage: the fractional reduction in misses,
//   - the LHF/MHF/HHF stratified versions of all three (Fig. 13), and
//   - region-restricted versions over "what TPC does not cover" (Fig. 14).
package metrics

import (
	"divlab/internal/mem"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// Classifier labels a line address with its ground-truth category.
type Classifier func(lineAddr mem.Line) workloads.Category

// Pair compares a prefetcher run against its no-prefetch baseline. Both
// runs must come from the same workload, seed and instruction budget.
type Pair struct {
	Base *sim.Result
	PF   *sim.Result
}

// Speedup returns IPC(pf) / IPC(baseline).
func (p Pair) Speedup() float64 {
	b := p.Base.IPC()
	if b == 0 {
		return 0
	}
	return p.PF.IPC() / b
}

// TrafficNorm returns memory traffic normalized to the baseline.
func (p Pair) TrafficNorm() float64 {
	if p.Base.Traffic == 0 {
		return 0
	}
	return float64(p.PF.Traffic) / float64(p.Base.Traffic)
}

// cursor is the inner side of a merge join over footprint columns: it
// probes a sorted column with lines that arrive in ascending order, so a
// join costs one pass over each side.
type cursor struct {
	lines []mem.Line
	i     int
}

// seek reports whether line is in the column, and at which index. Lines
// passed to successive calls must not descend.
func (c *cursor) seek(line mem.Line) (int, bool) {
	for c.i < len(c.lines) && c.lines[c.i] < line {
		c.i++
	}
	return c.i, c.i < len(c.lines) && c.lines[c.i] == line
}

// Scope returns S(P): the weighted fraction of the baseline L1 miss
// footprint attempted by the prefetcher. Requires CollectFootprint runs.
func (p Pair) Scope() float64 {
	covered, total := p.ScopeWeights()
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// ScopeWeights returns Scope's numerator and denominator: the weight of
// the baseline L1 miss footprint the prefetcher attempted, and the whole
// footprint's weight. A global average over several applications sums
// them.
func (p Pair) ScopeWeights() (covered, total uint64) {
	base := p.Base.MissL1Lines
	att := cursor{lines: p.PF.Attempted.Lines}
	for i, line := range base.Lines {
		w := uint64(base.Vals[i])
		total += w
		if _, ok := att.seek(line); ok {
			covered += w
		}
	}
	return covered, total
}

// EffAccuracyL1 returns (baseline L1 misses − prefetch-run L1 misses) per
// L1-destined prefetch; 0 when none were issued. Prefetches sent to the L2
// (e.g. C1's region prefetches) cannot remove L1 misses by design, so they
// are judged at their own destination by EffAccuracyL2 instead.
func (p Pair) EffAccuracyL1() float64 {
	issued := p.PF.IssuedDest[0]
	if issued == 0 {
		return 0
	}
	return float64(int64(p.Base.L1Misses)-int64(p.PF.L1Misses)) / float64(issued)
}

// EffAccuracyL2 is the L2-level analogue.
func (p Pair) EffAccuracyL2() float64 {
	if p.PF.Issued == 0 {
		return 0
	}
	return float64(int64(p.Base.L2Misses)-int64(p.PF.L2Misses)) / float64(p.PF.Issued)
}

// CoverageL1 returns the fractional reduction of L1 misses.
func (p Pair) CoverageL1() float64 {
	if p.Base.L1Misses == 0 {
		return 0
	}
	return float64(int64(p.Base.L1Misses)-int64(p.PF.L1Misses)) / float64(p.Base.L1Misses)
}

// CoverageL2 returns the fractional reduction of L2 misses.
func (p Pair) CoverageL2() float64 {
	if p.Base.L2Misses == 0 {
		return 0
	}
	return float64(int64(p.Base.L2Misses)-int64(p.PF.L2Misses)) / float64(p.Base.L2Misses)
}

// GroundTruthAccuracyL1 returns the lifecycle-traced accuracy at the L1:
// installed prefetch lines that saw a demand hit before eviction, per line
// installed. Unlike EffAccuracyL1 — a paired estimate that divides the *net*
// miss delta (including pollution) by prefetches issued — this is a property
// of the traced run alone: it counts actual first-use fates and so cannot go
// negative. Returns ok=false when the run was not traced or installed nothing
// at the L1.
func GroundTruthAccuracyL1(r *sim.Result) (v float64, ok bool) {
	if r == nil || r.Lifecycle == nil {
		return 0, false
	}
	t := r.Lifecycle.Totals()
	installed := t.Installed[0]
	if installed == 0 {
		return 0, false
	}
	return float64(t.DemandHits[0]) / float64(installed), true
}

// GroundTruthCoverageL1 returns the lifecycle-traced coverage at the L1:
// demand misses that were converted to hits by an installed prefetch, over
// all would-be misses (hits-on-prefetched + remaining misses). EffCoverageL1
// estimates the same quantity as the miss-count delta against a separate
// baseline run; the ground-truth form needs no baseline but counts a line
// once per fill rather than weighting by baseline miss frequency, so the two
// agree only within a tolerance (see metrics tests). Returns ok=false when
// the run was not traced or saw no L1 demand misses.
func GroundTruthCoverageL1(r *sim.Result) (v float64, ok bool) {
	if r == nil || r.Lifecycle == nil {
		return 0, false
	}
	hits := r.Lifecycle.Totals().DemandHits[0]
	would := hits + r.L1Misses
	if would == 0 {
		return 0, false
	}
	return float64(hits) / float64(would), true
}

// CatStats is one category's slice of the Fig. 13 analysis.
type CatStats struct {
	Category    workloads.Category
	Scope       float64
	EffAccuracy float64
	Prefetches  uint64
}

// ByCategory stratifies scope and effective accuracy over the ground-truth
// categories. Requires CollectFootprint runs and the workload's classifier.
func (p Pair) ByCategory(classify Classifier) [workloads.NumCategories]CatStats {
	var covered, total [workloads.NumCategories]uint64
	base := p.Base.MissL1Lines
	att := cursor{lines: p.PF.Attempted.Lines}
	for i, line := range base.Lines {
		c := classify(line)
		w := uint64(base.Vals[i])
		total[c] += w
		if _, ok := att.seek(line); ok {
			covered[c] += w
		}
	}
	var out [workloads.NumCategories]CatStats
	for c := 0; c < workloads.NumCategories; c++ {
		cs := CatStats{Category: workloads.Category(c), Prefetches: p.PF.CatIssued[c]}
		if total[c] > 0 {
			cs.Scope = float64(covered[c]) / float64(total[c])
		}
		if cs.Prefetches > 0 {
			// Judge the category's prefetches at their dominant
			// destination: L1-destined prefetches by L1 misses avoided,
			// L2-destined (C1 region prefetches) by L2 misses avoided.
			avoided := int64(p.Base.CatL1Misses[c]) - int64(p.PF.CatL1Misses[c])
			if p.PF.CatIssuedL1[c]*2 < cs.Prefetches {
				avoided = int64(p.Base.CatL2Misses[c]) - int64(p.PF.CatL2Misses[c])
			}
			cs.EffAccuracy = float64(avoided) / float64(cs.Prefetches)
		}
		out[c] = cs
	}
	return out
}

// Region is a set of footprint lines in ascending order (e.g. "what TPC
// does not cover").
type Region []mem.Line

// Uncovered returns the baseline footprint lines NOT attempted by the given
// run — the region Fig. 14 studies.
func Uncovered(base, ref *sim.Result) Region {
	var r Region
	att := cursor{lines: ref.Attempted.Lines}
	for _, line := range base.MissL1Lines.Lines {
		if _, ok := att.seek(line); !ok {
			r = append(r, line)
		}
	}
	return r
}

// RegionStats restricts scope and effective accuracy to a region.
type RegionStats struct {
	Scope       float64
	EffAccuracy float64
	Prefetches  uint64
}

// InRegion computes the pair's stats restricted to region lines: scope over
// the region's share of the footprint, and accuracy as region misses avoided
// per prefetch issued into the region. One merge join over the region
// gathers every sum; the baseline's region misses are the scope's total.
func (p Pair) InRegion(region Region) RegionStats {
	base, pfMiss, pfIssued := p.Base.MissL1Lines, p.PF.MissL1Lines, p.PF.IssuedLines
	inBase := cursor{lines: base.Lines}
	att := cursor{lines: p.PF.Attempted.Lines}
	inMiss := cursor{lines: pfMiss.Lines}
	inIssued := cursor{lines: pfIssued.Lines}
	var covered, total, misses, issued uint64
	for _, line := range region {
		if i, ok := inBase.seek(line); ok {
			w := uint64(base.Vals[i])
			total += w
			if _, ok := att.seek(line); ok {
				covered += w
			}
		}
		if i, ok := inMiss.seek(line); ok {
			misses += uint64(pfMiss.Vals[i])
		}
		if i, ok := inIssued.seek(line); ok {
			issued += uint64(pfIssued.Vals[i])
		}
	}
	rs := RegionStats{Prefetches: issued}
	if total > 0 {
		rs.Scope = float64(covered) / float64(total)
	}
	if issued > 0 {
		rs.EffAccuracy = float64(int64(total)-int64(misses)) / float64(issued)
	}
	return rs
}
