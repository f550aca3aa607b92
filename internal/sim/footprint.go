package sim

import (
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
// columns once the run is over.
type footprints struct {
	missL1, missL2, attempted, issued map[mem.Line]uint32
}

func newFootprints() *footprints {
	return &footprints{
		missL1:    map[mem.Line]uint32{},
		missL2:    map[mem.Line]uint32{},
		attempted: map[mem.Line]uint32{},
		issued:    map[mem.Line]uint32{},
	}
}

// freeze stores the accumulated footprints in res as sorted columns.
func (f *footprints) freeze(res *Result) {
	res.MissL1Lines = columns(f.missL1)
	res.MissL2Lines = columns(f.missL2)
	res.Attempted = columns(f.attempted)
	res.IssuedLines = columns(f.issued)
}

// columns returns m's entries sorted by line, in columns of exactly their
// size. A nil map gives the zero Footprint.
func columns(m map[mem.Line]uint32) Footprint {
	if m == nil {
		return Footprint{}
	}
	lines := make([]mem.Line, 0, len(m))
	for line := range m {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	vals := make([]uint32, len(lines))
	for i, line := range lines {
		vals[i] = m[line]
	}
	return Footprint{Lines: lines, Vals: vals}
}
