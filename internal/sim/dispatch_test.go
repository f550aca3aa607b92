package sim

import (
	"reflect"
	"testing"

	"divlab/internal/prefetch"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// scalarComp hides a component's native batch paths, so the simulator
// delivers every demand access through the scalar OnAccess adapter. SetID
// and Children are forwarded so AssignIDs gives the wrapped tree exactly
// the ids the unwrapped one gets.
type scalarComp struct{ prefetch.Component }

func (s scalarComp) SetID(id int) { s.Component.(interface{ SetID(int) }).SetID(id) }

func (s scalarComp) Children() []prefetch.Component {
	if p, ok := s.Component.(prefetch.Parent); ok {
		return p.Children()
	}
	return nil
}

// scalarInstComp is scalarComp for instruction observers: instructions go
// through the scalar OnInst adapter.
type scalarInstComp struct{ scalarComp }

func (s scalarInstComp) OnInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	s.Component.(prefetch.InstObserver).OnInst(in, cycle, issue)
}

// scalarOnly wraps every component f builds in the scalar-only view.
func scalarOnly(f Factory) Factory {
	return func(inst workloads.Instance) prefetch.Component {
		c := scalarComp{f(inst)}
		if _, ok := c.Component.(prefetch.InstObserver); ok {
			return scalarInstComp{c}
		}
		return c
	}
}

// runRecordedDispatch replays rec under the given dispatch mode. The scalar
// reference wraps the component in scalarOnly and runs at window cap 1, so
// every event reaches it one at a time through the scalar hooks; otherwise
// the native batch paths run and window (when nonzero) overrides the core's
// window cap so batch boundaries move. debugInstWindow is restored before
// returning.
func runRecordedDispatch(t testing.TB, rec *Recorded, w workloads.Workload, spec string, cfg Config, scalar bool, window int) *Result {
	t.Helper()
	p, err := ByName(spec)
	if err != nil {
		t.Fatalf("ByName(%q): %v", spec, err)
	}
	f := p.Factory
	if scalar {
		f, window = scalarOnly(f), 1
	}
	old := debugInstWindow
	debugInstWindow = window
	defer func() { debugInstWindow = old }()
	return RunSingleOn(rec.Instance(), w, f, cfg)
}

// TestDispatchDifferential pins batched event dispatch to the scalar
// reference: the same recorded trace must produce identical results — every
// counter, per-owner split, and prefetch-lifecycle fate included — whether
// events reach the component through its native batch paths in full windows
// or one at a time through its scalar hooks. This is the contract that makes
// window placement unobservable (windows flush before every demand access,
// at the cap, and at batch boundaries).
func TestDispatchDifferential(t *testing.T) {
	const n = 25_000
	cfg := DefaultConfig(n)
	cfg.TraceLifecycle = true
	cases := []struct {
		workload string
		specs    []string
	}{
		// stream.pure drives T2's batch path hard; chase.seq exercises P1's
		// chain FSM; mix.phases rotates through behaviors so window flushes
		// land in every training regime. The spec list covers native batch
		// components (tpc, stride, ghb, nextline), adapter-only components
		// (spp, sms), and a composite mixing both.
		{"stream.pure", []string{"tpc", "stride", "ghb-pc/dc", "nextline", "sms"}},
		{"chase.seq", []string{"tpc", "spp"}},
		{"mix.phases", []string{"tpc+sms", "tpc", "ghb-pc/dc"}},
	}
	for _, c := range cases {
		w, ok := workloads.ByName(c.workload)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		rec := Record(w, cfg.Seed, n)
		for _, spec := range c.specs {
			scalar := runRecordedDispatch(t, rec, w, spec, cfg, true, 0)
			batched := runRecordedDispatch(t, rec, w, spec, cfg, false, 0)
			if !reflect.DeepEqual(scalar, batched) {
				t.Errorf("%s/%s: batched dispatch diverged from scalar\nscalar:  core=%+v L1=%d/%d L2=%d issued=%d filtered=%d dropped=%d lifecycle=%+v\nbatched: core=%+v L1=%d/%d L2=%d issued=%d filtered=%d dropped=%d lifecycle=%+v",
					c.workload, spec,
					scalar.Core, scalar.L1Misses, scalar.L1Secondary, scalar.L2Misses, scalar.Issued, scalar.Filtered, scalar.Dropped, scalar.Lifecycle,
					batched.Core, batched.L1Misses, batched.L1Secondary, batched.L2Misses, batched.Issued, batched.Filtered, batched.Dropped, batched.Lifecycle)
			}
		}
	}
}

// TestDispatchDifferentialFootprint covers the CollectFootprint columns, which
// take a different accumulation path than the dense counters.
func TestDispatchDifferentialFootprint(t *testing.T) {
	const n = 20_000
	cfg := DefaultConfig(n)
	cfg.CollectFootprint = true
	w, ok := workloads.ByName("mix.phases")
	if !ok {
		t.Fatal("mix.phases missing")
	}
	rec := Record(w, cfg.Seed, n)
	scalar := runRecordedDispatch(t, rec, w, "tpc+sms", cfg, true, 0)
	batched := runRecordedDispatch(t, rec, w, "tpc+sms", cfg, false, 0)
	if !reflect.DeepEqual(scalar, batched) {
		t.Errorf("footprint run diverged: scalar %d/%d/%d lines, batched %d/%d/%d lines",
			len(scalar.MissL1Lines.Lines), len(scalar.Attempted.Lines), len(scalar.IssuedLines.Lines),
			len(batched.MissL1Lines.Lines), len(batched.Attempted.Lines), len(batched.IssuedLines.Lines))
	}
}

// FuzzDispatchWindow fuzzes the batch-boundary placement: any dispatch
// window cap in [1, MaxWindow] on the native batch paths must leave the
// result pinned to the scalar reference. A cap of 1 makes every window a single instruction (maximum
// flush pressure); odd caps shift every boundary relative to the instruction
// stream.
func FuzzDispatchWindow(f *testing.F) {
	for _, s := range []uint8{0, 1, 2, 4, 7, 30, 31, 255} {
		f.Add(s)
	}
	const n = 10_000
	w, ok := workloads.ByName("mix.phases")
	if !ok {
		f.Fatal("mix.phases missing")
	}
	cfg := DefaultConfig(n)
	cfg.TraceLifecycle = true
	rec := Record(w, cfg.Seed, n)
	want := runRecordedDispatch(f, rec, w, "tpc+sms", cfg, true, 0)
	f.Fuzz(func(t *testing.T, capByte uint8) {
		window := int(capByte)%32 + 1
		got := runRecordedDispatch(t, rec, w, "tpc+sms", cfg, false, window)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("window cap %d diverged from scalar: scalar core=%+v issued=%d, batched core=%+v issued=%d",
				window, want.Core, want.Issued, got.Core, got.Issued)
		}
	})
}
