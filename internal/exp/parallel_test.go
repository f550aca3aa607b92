package exp

import (
	"bytes"
	"testing"

	"divlab/internal/runner"
)

// TestParallelReportByteIdentical is the engine's determinism regression:
// the same experiment, run on private engines at workers=1 and workers=8,
// must emit byte-identical reports — per-run randomness is seed-derived and
// no state is shared across runs, so completion order cannot leak into the
// report. Guarded by -short because it simulates the fig8 matrix twice at
// QuickOptions scale.
func TestParallelReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-worker fig8 sweep is expensive")
	}
	o := QuickOptions()
	var fig8Reports, fig9Reports [2]bytes.Buffer
	var missCounts [2]uint64
	for i, workers := range []int{1, 8} {
		o.Engine = runner.New(runner.WithWorkers(workers))
		if err := Run("fig8", TextSink(&fig8Reports[i]), o); err != nil {
			t.Fatalf("fig8 at workers=%d: %v", workers, err)
		}
		hits, misses := o.Engine.Stats()
		if hits != 0 {
			t.Errorf("workers=%d: fig8's matrix is all-unique, got %d hits", workers, hits)
		}
		missCounts[i] = misses
		// fig9 reuses fig8's exact matrix: it must be served entirely from
		// the cache (the "baseline simulated once per configuration, not
		// once per experiment" guarantee).
		if err := Run("fig9", TextSink(&fig9Reports[i]), o); err != nil {
			t.Fatalf("fig9 at workers=%d: %v", workers, err)
		}
		if _, after := o.Engine.Stats(); after != misses {
			t.Errorf("workers=%d: fig9 re-simulated %d runs fig8 already cached", workers, after-misses)
		}
	}
	if missCounts[0] != missCounts[1] {
		t.Errorf("executed simulations differ across worker counts: %d vs %d", missCounts[0], missCounts[1])
	}
	if !bytes.Equal(fig8Reports[0].Bytes(), fig8Reports[1].Bytes()) {
		t.Errorf("fig8 report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			fig8Reports[0].String(), fig8Reports[1].String())
	}
	if !bytes.Equal(fig9Reports[0].Bytes(), fig9Reports[1].Bytes()) {
		t.Error("fig9 report differs between workers=1 and workers=8")
	}
}

// TestSmallExperimentsParallel smoke-runs cheaper experiments through a
// parallel private engine at tiny scale (always on: keeps `go test -short`
// exercising the engine).
func TestSmallExperimentsParallel(t *testing.T) {
	o := tinyOptions()
	o.Engine = runner.New(runner.WithWorkers(4))
	for _, name := range []string{"table2", "ablation"} {
		var buf bytes.Buffer
		if err := Run(name, TextSink(&buf), o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

// TestFig8AfterFig1UsesTwins: fig1's footprint matrix (21 SPEC apps under
// none, AMPM, BOP and SMS) holds the twins of 84 of fig8's 189 footprint-free
// runs, so on one engine fig8 after fig1 simulates only the other 105, and
// its report is byte-identical to fig8 run alone.
func TestFig8AfterFig1UsesTwins(t *testing.T) {
	o := tinyOptions()
	var alone, after bytes.Buffer
	o.Engine = runner.New(runner.WithWorkers(2))
	if err := Run("fig8", TextSink(&alone), o); err != nil {
		t.Fatal(err)
	}
	if sims := o.Engine.Sims(); sims != 189 {
		t.Fatalf("fig8 alone simulated %d runs, want 189", sims)
	}

	o.Engine = runner.New(runner.WithWorkers(2))
	if err := Run("fig1", TextSink(new(bytes.Buffer)), o); err != nil {
		t.Fatal(err)
	}
	before := o.Engine.Sims()
	if err := Run("fig8", TextSink(&after), o); err != nil {
		t.Fatal(err)
	}
	if sims, derived := o.Engine.Sims()-before, o.Engine.Derived(); sims != 105 || derived != 84 {
		t.Errorf("fig8 after fig1 simulated %d runs and derived %d, want 105 and 84", sims, derived)
	}
	if !bytes.Equal(after.Bytes(), alone.Bytes()) {
		t.Errorf("fig8 after fig1 differs from fig8 alone:\n--- alone ---\n%s\n--- after fig1 ---\n%s", alone.String(), after.String())
	}
}
