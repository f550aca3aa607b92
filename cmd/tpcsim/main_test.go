package main

import (
	"bytes"
	"strings"
	"testing"

	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// TestPrintKeyBaseline holds -key -prefetcher none to the key every baseline
// job is stored under: experiments, sweeps and the benchmark all key their
// no-prefetch runs with sim.Baseline().
func TestPrintKeyBaseline(t *testing.T) {
	var out bytes.Buffer
	if err := printKey(&out, "stream.pure", "none", 300_000, 1, false); err != nil {
		t.Fatal(err)
	}
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		t.Fatal("workload stream.pure not registered")
	}
	cfg := sim.DefaultConfig(300_000)
	cfg.Seed = 1
	k, ok := runner.KeyOf(runner.Job{Workload: w, Prefetcher: sim.Baseline(), Config: cfg})
	if !ok {
		t.Fatal("the baseline job has no key")
	}
	if want := "digest=" + k.Digest() + "\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("printed\n%swant it to end in %q", out.String(), want)
	}
}
