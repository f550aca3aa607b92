// Command benchjson records and validates the committed BENCH_*.json files
// that back speed claims. Run it from the root of a divlab checkout:
//
//	benchjson -label NAME -workload W [-seed N] -o FILE PARENT_DIR CHANGE_DIR
//	benchjson -validate [FILE...]
//
// Recording reads perfbench runs captured one file per run (EXPERIMENTS.md,
// "Performance methodology"), pairs the n-th files of the two directories in
// name order, and adds one divlab-bench/v2 entry per end-to-end metric of
// BENCHMARK.json to FILE. -validate (default: every BENCH_*.json) holds each
// v2 entry's change median to its parent median within the metric's bound;
// v1 files, from the retired `go test` benchmark harness, get a shape check.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"divlab/internal/stats"
)

const schemaV1, schemaV2 = "divlab-bench/v1", "divlab-bench/v2"

// File is a divlab-bench/v2 trajectory file.
type File struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Entry is one end-to-end metric of one workload over Pairs parent/change
// pairs. ChangeWon counts the pairs the change was strictly better in.
type Entry struct {
	Label     string  `json:"label"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	Pairs     int     `json:"pairs"`
	Parent    Summary `json:"parent"`
	Change    Summary `json:"change"`
	ChangeWon int     `json:"change_won"`
	Host      string  `json:"host"`
}

// Summary is one side's median and nearest-rank quartiles.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// benchmark is what BENCHMARK.json names: workloads and end-to-end metrics.
type benchmark struct {
	workloads map[string]bool
	metrics   map[string]metricSpec
	endToEnd  []metricSpec // in BENCHMARK.json's order
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// metricValue is one metric of perfbench's final line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	label := flag.String("label", "", "label of the recorded entries")
	workload := flag.String("workload", "", "perfbench workload of the captured runs")
	seed := flag.Uint64("seed", 1, "perfbench seed of the captured runs")
	out := flag.String("o", "", "trajectory file to add the entries to")
	validate := flag.Bool("validate", false, "validate the named trajectory files (default: BENCH_*.json)")
	flag.Parse()
	bm, err := loadBenchmark("BENCHMARK.json")
	check(err)
	if *validate {
		paths := flag.Args()
		if len(paths) == 0 {
			paths, _ = filepath.Glob("BENCH_*.json")
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			schema := ""
			if err == nil {
				schema, err = validateFile(b, bm)
			}
			check(err, path)
			fmt.Printf("%s: valid (%s)\n", path, schema)
		}
		return
	}
	if *label == "" || *out == "" || flag.NArg() != 2 {
		check(errors.New("usage: benchjson -label NAME -workload W [-seed N] -o FILE PARENT_DIR CHANGE_DIR"))
	}
	parent, err := readRuns(bm, flag.Arg(0))
	check(err)
	change, err := readRuns(bm, flag.Arg(1))
	check(err)
	entries, err := record(bm, *label, *workload, *seed, parent, change)
	check(err)
	f := File{Schema: schemaV2}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &f); err != nil || f.Schema != schemaV2 {
			check(fmt.Errorf("not a %s file (%v)", schemaV2, err), *out)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		check(err)
	}
	f.Entries = append(f.Entries, entries...)
	enc, err := json.MarshalIndent(f, "", "  ")
	check(err)
	check(os.WriteFile(*out, append(enc, '\n'), 0o644))
}

// check exits with err, after the file it concerns, unless err is nil.
func check(err error, file ...string) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", strings.Join(append(file, err.Error()), ": "))
		os.Exit(1)
	}
}

func loadBenchmark(path string) (*benchmark, error) {
	var raw struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
	}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &raw)
	}
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of a divlab checkout)", err)
	}
	bm := &benchmark{workloads: map[string]bool{}, metrics: map[string]metricSpec{}, endToEnd: raw.EndToEnd}
	for _, w := range raw.Workloads {
		bm.workloads[w.Name] = true
	}
	for _, m := range raw.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: %s is better %q, want lower or higher", path, m.Name, m.Better)
		}
		bm.metrics[m.Name] = m
	}
	return bm, nil
}

// gain is how much better a is than b, as a fraction of b.
func (m metricSpec) gain(a, b float64) float64 {
	if m.Better == "lower" {
		return (b - a) / b
	}
	return (a - b) / b
}

// readRuns reads the final line of each file in dir, in name order, as a run.
// A run must be correct, fail nothing, and carry exactly the end-to-end
// metrics of BENCHMARK.json in their units.
func readRuns(bm *benchmark, dir string) ([]map[string]float64, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []map[string]float64
	for _, f := range files {
		path := filepath.Join(dir, f.Name())
		var line struct {
			Correct bool
			Failed  int
			Metrics map[string]metricValue
		}
		out, err := os.ReadFile(path)
		if out = bytes.TrimRight(out, "\n"); err == nil {
			err = json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &line)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !line.Correct || line.Failed != 0 {
			return nil, fmt.Errorf("%s: correct=%v with %d failed: record only correct runs", path, line.Correct, line.Failed)
		}
		run := map[string]float64{}
		for name, v := range line.Metrics {
			if m, ok := bm.metrics[name]; !ok || v.Unit != m.Unit {
				return nil, fmt.Errorf("%s: %s in %q is not an end-to-end metric of BENCHMARK.json", path, name, v.Unit)
			}
			run[name] = v.Value
		}
		if len(run) != len(bm.endToEnd) {
			return nil, fmt.Errorf("%s: %d of the %d end-to-end metrics", path, len(run), len(bm.endToEnd))
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// record pairs the n-th parent run with the n-th change run and summarizes
// every end-to-end metric. Ties count for neither side.
func record(bm *benchmark, label, workload string, seed uint64, parent, change []map[string]float64) ([]Entry, error) {
	if !bm.workloads[workload] {
		return nil, fmt.Errorf("workload %q is not in BENCHMARK.json", workload)
	}
	if len(parent) == 0 || len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent and %d change runs: record equal, nonzero counts", len(parent), len(change))
	}
	var entries []Entry
	host := hostString()
	for _, m := range bm.endToEnd {
		e := Entry{Label: label, Workload: workload, Seed: seed, Metric: m.Name, Unit: m.Unit, Pairs: len(parent), Host: host}
		p, c := make([]float64, len(parent)), make([]float64, len(change))
		for i := range parent {
			p[i], c[i] = parent[i][m.Name], change[i][m.Name]
			if m.gain(c[i], p[i]) > 0 {
				e.ChangeWon++
			}
		}
		e.Parent, e.Change = summarize(p), summarize(c)
		entries = append(entries, e)
	}
	return entries, nil
}

// summarize takes quartiles by nearest rank, as perfbench's percentile does.
func summarize(xs []float64) Summary {
	sort.Float64s(xs)
	rank := func(p float64) float64 { return xs[max(int(math.Ceil(p*float64(len(xs))/100-1e-9))-1, 0)] }
	return Summary{Median: stats.Median(xs), Q1: rank(25), Q3: rank(75)}
}

// hostString names the measurement host: its CPU model, else OS/arch.
func hostString() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	if _, model, ok := strings.Cut(string(b), "\nmodel name"); ok {
		line, _, _ := strings.Cut(model, "\n")
		if _, v, ok := strings.Cut(line, ":"); ok {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// validateFile checks a trajectory file and returns its schema. Both sides
// of a v2 entry come from one alternating session, so the gate compares them
// directly.
func validateFile(b []byte, bm *benchmark) (string, error) {
	var v1 struct {
		Schema  string
		Entries []struct {
			Label, Bench, Host string
			NsPerOp            float64 `json:"ns_per_op"`
		}
	}
	if err := json.Unmarshal(b, &v1); err != nil {
		return "", err
	}
	if len(v1.Entries) == 0 {
		return "", errors.New("no entries")
	}
	if v1.Schema == schemaV1 {
		for i, e := range v1.Entries {
			if e.Label == "" || e.Bench == "" || e.Host == "" || !(e.NsPerOp > 0) {
				return "", fmt.Errorf("entry %d: label, bench, host and a positive ns_per_op are required", i)
			}
		}
		return schemaV1, nil
	}
	if v1.Schema != schemaV2 {
		return "", fmt.Errorf("schema %q, want %q or %q", v1.Schema, schemaV2, schemaV1)
	}
	var f File // decoded strictly: a misspelt field must not read as zero
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&f)
	if err != nil {
		return "", err
	}
	for i, e := range f.Entries {
		m, ok := bm.metrics[e.Metric]
		switch {
		case e.Label == "" || e.Host == "":
			err = errors.New("label and host are required")
		case !bm.workloads[e.Workload]:
			err = errors.New("workload is not in BENCHMARK.json")
		case !ok:
			err = errors.New("not an end-to-end metric of BENCHMARK.json")
		case e.Unit != m.Unit:
			err = fmt.Errorf("unit %q, BENCHMARK.json gives %q", e.Unit, m.Unit)
		case e.Pairs < 1 || e.ChangeWon < 0 || e.ChangeWon > e.Pairs:
			err = fmt.Errorf("change won %d of %d pairs", e.ChangeWon, e.Pairs)
		case !ordered(e.Parent) || !ordered(e.Change):
			err = fmt.Errorf("quartiles out of order: parent %+v, change %+v", e.Parent, e.Change)
		case m.gain(e.Change.Median, e.Parent.Median) < -m.Bound:
			err = fmt.Errorf("change median %g is worse than the parent's %g by more than the %g bound",
				e.Change.Median, e.Parent.Median, m.Bound)
		}
		if err != nil {
			return "", fmt.Errorf("entry %d (%s %s seed %d %s): %w", i, e.Label, e.Workload, e.Seed, e.Metric, err)
		}
	}
	return schemaV2, nil
}

func ordered(s Summary) bool { return s.Q1 <= s.Median && s.Median <= s.Q3 }
