// Package sink seeds discarded errors on each guarded output path, next to a
// correctly handled counterpart.
package sink

import (
	"io"
	"text/tabwriter"

	"divlab/internal/exp"
	"divlab/internal/obs"
	"divlab/internal/sim"
)

func specs(dyn string) {
	n, err := sim.ByName(dyn) // ok: error handled
	_, _ = n, err
	tpc, _ := sim.ByName("tpc") // ok: constant spec proven valid at compile time
	_ = tpc
	a, _ := sim.ByName(dyn) // want "error from ByName assigned to _"
	_ = a
	b, _ := sim.ByName("ghb:entires=1") // want "error from ByName assigned to _"
	_ = b
}

func reports(w io.Writer, r *obs.Report) error {
	r.Encode(w)     // want "result of Encode is discarded"
	_ = r.Encode(w) // want "error from Encode assigned to _"
	if err := r.Validate(); err != nil {
		return err // ok: error propagated
	}
	return r.Encode(w) // ok: error returned
}

func flush(tw *tabwriter.Writer) error {
	tw.Flush()       // want "result of Flush is discarded"
	defer tw.Flush() // want "result of Flush is discarded"
	return tw.Flush()
}

func experiments(s *exp.Sink, o exp.Options) {
	exp.RunAll(s, o) // want "result of RunAll is discarded"
	if err := exp.Run("fig8", s, o); err != nil {
		panic(err)
	}
}
