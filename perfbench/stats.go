package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n samples.
// The epsilon keeps float error from pushing an exact rank up by one.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// samplesBeyond is the number of the n samples that lie above percentile p.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile returns the highest candidate percentile that has at least
// minBeyond of n samples beyond it; ok is false when even p90 has too few.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if samplesBeyond(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (any order). A tail
// percentile (above the median) is refused, returning ok=false, when fewer
// than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || (p > 50 && samplesBeyond(n, p) < minBeyond) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(n, p) - 1
	if i < 0 {
		i = 0
	}
	return s[i], true
}

// median returns the middle value of xs (mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0. Every ratio metric names its
// base (den) in its definition.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open span of time [start, end).
type interval struct{ start, end time.Time }

// covered returns how much of [lo, hi) the union of ivs covers. Intervals may
// overlap (spans from several workers) and may extend past [lo, hi).
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent.start, parent.end, children)
}
