package exp_test

import (
	"bytes"
	"testing"

	"divlab/internal/exp"
	"divlab/internal/runner"
	"divlab/internal/store"
)

// TestRunAllWarmStoreByteIdentical is the tentpole gate: a cold full suite
// populates the store; a second engine sharing only that store must answer
// every job from it — zero simulations — and render a byte-identical report.
// This is what licenses the read-through tier to ever short-circuit a
// simulation. Jobs the cold engine answered from a twin count: fig8 alone
// over the cold store must not simulate either.
func TestRunAllWarmStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	st := store.NewMem()
	o := exp.QuickOptions()

	var cold bytes.Buffer
	o.Engine = runner.New(runner.WithStore(st))
	if err := exp.RunAll(exp.TextSink(&cold), o); err != nil {
		t.Fatal(err)
	}
	coldEngine := o.Engine
	if s := coldEngine.StoreStats(); s.Puts == 0 || s.Errs != 0 {
		t.Fatalf("cold run store stats %+v: expected persists and no errors", s)
	}

	// Every fig8 key is footprint-free, and the cold run answered most of
	// them from footprint twins in the figures registered before fig8
	// instead of simulating them: derived results must be stored too.
	o.Engine = runner.New(runner.WithStore(st))
	if err := exp.Run("fig8", exp.TextSink(new(bytes.Buffer)), o); err != nil {
		t.Fatal(err)
	}
	if sims := o.Engine.Sims(); sims != 0 {
		t.Errorf("fig8 over the cold store executed %d simulations, want 0", sims)
	}

	var warm bytes.Buffer
	o.Engine = runner.New(runner.WithStore(st))
	if err := exp.RunAll(exp.TextSink(&warm), o); err != nil {
		t.Fatal(err)
	}
	e := o.Engine
	if sims := e.Sims(); sims != 0 {
		t.Errorf("warm run executed %d simulations, want 0", sims)
	}
	s := e.StoreStats()
	if s.Errs != 0 {
		t.Errorf("warm run store errors: %+v", s)
	}
	cacheHits, _ := e.Stats()
	if jobs := e.Jobs(); s.Hits == 0 || s.Hits+cacheHits != jobs {
		t.Errorf("warm run: %d jobs, %d store hits, %d cache hits — every job must be a store or cache hit", jobs, s.Hits, cacheHits)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		diffAt := len(cold.Bytes())
		for i := 0; i < cold.Len() && i < warm.Len(); i++ {
			if cold.Bytes()[i] != warm.Bytes()[i] {
				diffAt = i
				break
			}
		}
		t.Fatalf("warm-store report diverged from cold run at byte %d", diffAt)
	}
}
