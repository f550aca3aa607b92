package main

import (
	"encoding/json"
	"os"
	"testing"

	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// testInsts keeps the fidelity tests fast; the traced run uses the full
// budgets with the same code.
const testInsts = 20_000

func testCases(t *testing.T) []*simCase {
	t.Helper()
	cfg := sim.DefaultConfig(testInsts)
	var out []*simCase
	for _, name := range []string{"stream.pure", "chase.rand", "bfs.google"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown app %s", name)
		}
		rec := sim.Record(w, 1, testInsts)
		out = append(out, &simCase{key: name + "/none", col: sim.Baseline(), cfg: cfg, app: w, recs: []*sim.Recorded{rec}, spec: "none"})
		for _, s := range prefetchSpecs {
			out = append(out, &simCase{key: name + "/" + s, col: sim.MustByName(s), cfg: cfg, app: w, recs: []*sim.Recorded{rec}, spec: s})
		}
	}
	mix := workloads.Mixes(1, 3)[0]
	base := sim.Config{Insts: testInsts / 2, Cores: 4, Seed: 3, CoreParams: cpu.DefaultParams(), DropPolicy: dram.DropRandomPrefetch}
	recs := make([]*sim.Recorded, 4)
	for i := range recs {
		recs[i] = sim.Record(mix.Apps[i], sim.MixSeed(base, i), base.Insts)
	}
	out = append(out,
		&simCase{key: "mix/none", col: sim.Baseline(), cfg: base, mix: mix, recs: recs, spec: "none"},
		&simCase{key: "mix/tpc", col: sim.MustByName("tpc"), cfg: base, mix: mix, recs: recs, spec: "tpc"},
		&simCase{key: "mix/bop", col: sim.MustByName("bop"), cfg: base, mix: mix, recs: recs, spec: "bop"},
	)
	return out
}

// The decorators must expose exactly the wrapped value's optional
// interfaces: sim picks Core.Step or StepBatch, the dispatch path and the
// owner ids from that set.
func TestDecoratorsKeepInterfaceSets(t *testing.T) {
	w, _ := workloads.ByName("chase.rand")
	inst := sim.Record(w, 1, 1000).Instance()
	comps := []prefetch.Component{&prefetch.Nop{}}
	for _, s := range prefetchSpecs {
		comps = append(comps, sim.MustByName(s).Factory(inst))
	}
	for _, c := range comps {
		d, err := wrapComponent(c, &pfTap{cap: &capture{}, cc: &coreCapture{}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ifacesOf(d), ifacesOf(c); got != want {
			t.Errorf("%s: decorator exposes %+v, component %+v", c.Name(), got, want)
		}
	}
	for _, in := range []workloads.Instance{inst, w.New(1)} {
		_, want := in.(trace.BatchSource)
		_, got := wrapInstance(in, &instTap{}).(trace.BatchSource)
		if got != want {
			t.Errorf("instance decorator BatchSource = %v, wrapped %v", got, want)
		}
	}
}

// Every decorated run must equal the untraced run (digests; the baseline,
// captured through a no-op component, by cycles and counters), and every
// replay must reproduce the captured run exactly. traceCase checks all of
// it and returns the first difference.
func TestTracedRunsEqualUntracedAndReplaysReproduce(t *testing.T) {
	tr := &tracer{}
	for i, c := range testCases(t) {
		plain := c.run(false, c.col.Factory, nil)
		l := &simLayers{specs: map[string]*specLayer{}}
		if err := l.traceCase(c, plain, 0, 0, tr, -1, i); err != nil {
			t.Errorf("%s: %v", c.key, err)
		}
	}
}

// A decorator that dropped one optional interface would still produce the
// same results, so the interface check must catch it on its own.
func TestInterfaceCheckCatchesAMissingBatchPath(t *testing.T) {
	c := sim.MustByName("ghb").Factory(nil)
	tap := &pfTap{cap: &capture{}, cc: &coreCapture{}}
	if _, err := wrapComponent(c, tap); err != nil {
		t.Fatal(err)
	}
	if ifacesOf(tapID{tap}) == ifacesOf(c) {
		t.Fatal("a decorator without OnAccessBatch reads as equal to GHB")
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) is not printed with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits())
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}
