package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repoBenchmark(t *testing.T) *benchmark {
	t.Helper()
	bm, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestCommittedTrajectory validates every committed BENCH_*.json, so the
// trajectory is gated wherever the test suite runs.
func TestCommittedTrajectory(t *testing.T) {
	bm := repoBenchmark(t)
	paths, _ := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if len(paths) < 4 {
		t.Fatalf("found %d committed trajectory files, want at least 4", len(paths))
	}
	for _, p := range paths {
		b, _ := os.ReadFile(p)
		if _, err := validateFile(b, bm); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestValidateGate(t *testing.T) {
	bm := repoBenchmark(t)
	cases := []struct {
		name    string
		edit    func(e *Entry)
		wantErr string // "" for an entry that must pass
	}{
		{"within the bound", func(e *Entry) {}, ""},
		{"lower-better metric past the bound", func(e *Entry) { e.Change = Summary{1.3, 1.2, 1.4} }, "worse than the parent"},
		{"higher-better metric past the bound", func(e *Entry) { e.Metric, e.Unit, e.Change = "insts_per_s", "1/s", Summary{0.7, 0.6, 0.8} }, "worse than the parent"},
		{"unknown workload", func(e *Entry) { e.Workload = "sim-8core" }, "workload"},
		{"unknown metric", func(e *Entry) { e.Metric = "wall_s" }, "not an end-to-end metric"},
		{"unit mismatch", func(e *Entry) { e.Unit = "ms" }, "unit"},
		{"quartiles out of order", func(e *Entry) { e.Change.Q3 = 1.15 }, "quartiles out of order"},
		{"change won more pairs than ran", func(e *Entry) { e.ChangeWon = 11 }, "change won"},
	}
	for _, c := range cases {
		e := Entry{Label: "x", Workload: "exp-store", Seed: 1, Metric: "warm_s", Unit: "s", Pairs: 10,
			Parent: Summary{1.0, 0.9, 1.1}, Change: Summary{1.2, 1.1, 1.3}, ChangeWon: 10, Host: "h"}
		c.edit(&e)
		b, _ := json.Marshal(File{Schema: schemaV2, Entries: []Entry{e}})
		_, err := validateFile(b, bm)
		if (c.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: error = %v, want %q", c.name, err, c.wantErr)
		}
	}
	for _, body := range []string{
		`{"schema":"divlab-bench/v3","entries":[]}`,
		`{"schema":"divlab-bench/v1","entries":[{"label":"a","bench":"B","ns_per_op":1}]}`,
		`{"schema":"divlab-bench/v2","entries":[]}`,
		`{"schema":"divlab-bench/v2","entries":[{"label":"a","bench":"B"}]}`,
	} {
		if _, err := validateFile([]byte(body), bm); err == nil {
			t.Errorf("%s: accepted", body)
		}
	}
}

// runOutput is a captured perfbench run: text, then the final JSON line.
func runOutput(correct bool, failed int, metrics map[string]metricValue) []byte {
	line, _ := json.Marshal(map[string]interface{}{"correct": correct, "attempted": 12, "failed": failed, "metrics": metrics})
	return append([]byte("sim-1core: 3 cold and 3 warm passes\n"), append(line, '\n')...)
}

// allMetrics gives every end-to-end metric the value v.
func allMetrics(bm *benchmark, v float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, s := range bm.endToEnd {
		m[s.Name] = metricValue{v, s.Unit}
	}
	return m
}

func TestRecord(t *testing.T) {
	bm := repoBenchmark(t)
	writeRuns := func(outs ...[]byte) (dir string) {
		dir = t.TempDir()
		for i, out := range outs {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprint(i)), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	read := func(vals ...float64) []map[string]float64 {
		var outs [][]byte
		for _, v := range vals {
			outs = append(outs, runOutput(true, 0, allMetrics(bm, v)))
		}
		runs, err := readRuns(bm, writeRuns(outs...))
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	parent, change := read(10, 7, 9, 8), read(8, 7, 7, 9)
	entries, err := record(bm, "x", "sim-1core", 7, parent, change)
	if err != nil || len(entries) != len(bm.endToEnd) {
		t.Fatalf("%d entries, error %v; want one per end-to-end metric", len(entries), err)
	}
	for _, e := range entries {
		// Pair 1 ties and counts for neither side.
		won := map[string]int{"lower": 2, "higher": 1}[bm.metrics[e.Metric].Better]
		if e.Pairs != 4 || e.Seed != 7 || e.ChangeWon != won ||
			e.Parent != (Summary{8.5, 7, 9}) || e.Change != (Summary{7.5, 7, 8}) {
			t.Errorf("%+v, want change_won %d", e, won)
		}
	}
	b, _ := json.Marshal(File{Schema: schemaV2, Entries: entries})
	if _, err := validateFile(b, bm); err != nil {
		t.Errorf("recorded entries do not validate: %v", err)
	}
	if _, err := record(bm, "x", "sim-1core", 1, parent, change[:3]); err == nil {
		t.Error("unequal parent and change counts accepted")
	}
	if _, err := record(bm, "x", "sim-8core", 1, parent, change); err == nil {
		t.Error("a workload BENCHMARK.json does not name accepted")
	}

	missing, perLayer, badUnit := allMetrics(bm, 1), allMetrics(bm, 1), allMetrics(bm, 1)
	delete(missing, "warm_s")
	perLayer["runner.jobs"] = metricValue{3, "count"}
	badUnit["warm_s"] = metricValue{1, "ms"}
	for name, out := range map[string][]byte{
		"incorrect run":     runOutput(false, 0, allMetrics(bm, 1)),
		"failed operations": runOutput(true, 2, allMetrics(bm, 1)),
		"per-layer metric":  runOutput(true, 0, perLayer),
		"unit mismatch":     runOutput(true, 0, badUnit),
		"missing metric":    runOutput(true, 0, missing),
		"no result line":    []byte("perfbench: unknown workload\n"),
	} {
		if _, err := readRuns(bm, writeRuns(out)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
