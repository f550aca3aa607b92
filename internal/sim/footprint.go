package sim

import (
	"cmp"
	"slices"

	"divlab/internal/mem"
)

// Footprint is one per-line measurement of a run as two columns: the lines
// in ascending order, and at the same index each line's value. A run with
// Config.CollectFootprint off leaves its footprints zero (nil Lines); a run
// that collected an empty footprint has empty, non-nil Lines.
type Footprint struct {
	Lines []mem.Line
	Vals  []uint32
}

// footprints accumulates one run's per-line measurements while it simulates.
// The maps grow with the run's footprint; run freezes them into the Result's
// columns once the run is over, and a Machine empties them for its next run
// (clear keeps their buckets).
type footprints struct {
	missL1, missL2, attempted, issued map[mem.Line]uint32
	// pairs is freeze's sort buffer, kept across runs.
	pairs []linePair
}

// linePair is one footprint entry.
type linePair struct {
	line mem.Line
	val  uint32
}

func newFootprints() *footprints {
	return &footprints{
		missL1:    map[mem.Line]uint32{},
		missL2:    map[mem.Line]uint32{},
		attempted: map[mem.Line]uint32{},
		issued:    map[mem.Line]uint32{},
	}
}

// reset empties the maps.
func (f *footprints) reset() {
	clear(f.missL1)
	clear(f.missL2)
	clear(f.attempted)
	clear(f.issued)
}

// freeze stores the accumulated footprints in res as sorted columns.
func (f *footprints) freeze(res *Result) {
	res.MissL1Lines = columns(f.missL1, &f.pairs)
	res.MissL2Lines = columns(f.missL2, &f.pairs)
	res.Attempted = columns(f.attempted, &f.pairs)
	res.IssuedLines = columns(f.issued, &f.pairs)
}

// columns returns m's entries sorted by line, in columns of exactly their
// size. A nil map gives the zero Footprint. It reads m once, sorting its
// (line, value) pairs in *buf, which keeps its capacity for the next call.
func columns(m map[mem.Line]uint32, buf *[]linePair) Footprint {
	if m == nil {
		return Footprint{}
	}
	pairs := (*buf)[:0]
	for line, val := range m {
		pairs = append(pairs, linePair{line, val})
	}
	slices.SortFunc(pairs, func(a, b linePair) int { return cmp.Compare(a.line, b.line) })
	*buf = pairs
	f := Footprint{Lines: make([]mem.Line, len(pairs)), Vals: make([]uint32, len(pairs))}
	for i, p := range pairs {
		f.Lines[i], f.Vals[i] = p.line, p.val
	}
	return f
}
