// Command perfbench is divlab's benchmark. It runs one named workload per
// invocation, checks every output and prints its metrics; the last line of
// standard output is one JSON object with the run's verdict and metrics.
//
//	perfbench --workload sim-1core|sim-4core|exp-store --seed N --seconds S --trace 0|1
//
// With --trace 0 it times the workload through the program's public entry
// points and prints the end-to-end metrics. With --trace 1 it instead runs
// the traced analysis (see traced.go) and prints the per-layer metrics.
// Run it from the root of a divlab checkout; run.sh builds and starts it.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workloadNames lists the benchmark's workloads.
var workloadNames = []string{"sim-1core", "sim-4core", "exp-store"}

// endToEndUnits gives every end-to-end metric its unit.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"insts_per_s":  "1/s",
	"sim_ms_p50":   "ms",
	"sim_ms_p90":   "ms",
	"cold_s":       "s",
	"warm_s":       "s",
	"cold_peak_mb": "MB",
	"warm_peak_mb": "MB",
}

// defaultSeed is the seed the committed digests and golden report hold for.
const defaultSeed = 1

//go:embed digests.json
var committedDigests []byte

// digestFile is the committed digest set for the default seed.
type digestFile struct {
	Params    string                       `json:"params"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// digestParams names the inputs the committed digests were taken with, so a
// change of budget or mix count cannot silently check against stale values.
func digestParams() string {
	return fmt.Sprintf("seed=%d sim1_insts=%d sim4_insts=%d sim4_copies=%d", defaultSeed, sim1Insts, sim4Insts, sim4Copies)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: sim-1core, sim-4core or exp-store")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Float64("seconds", 10, "how long the timed passes run")
	trace := fl.Int("trace", 0, "1 runs the traced analysis and reports per-layer metrics")
	writeDigests := fl.String("write-digests", "", "write the default seed's digests to this file and exit")
	workDir := fl.String("work-dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch result stores and spans")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("run from the root of a divlab checkout: %w", err)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	if *writeDigests != "" {
		return saveDigests(*writeDigests)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames)
	}

	var committed map[string]map[string]string
	var golden []byte
	if *seed == defaultSeed {
		var df digestFile
		if err := json.Unmarshal(committedDigests, &df); err != nil {
			return fmt.Errorf("digests.json: %w", err)
		}
		if df.Params != digestParams() {
			return fmt.Errorf("digests.json holds %q, the benchmark runs %q: regenerate it with --write-digests", df.Params, digestParams())
		}
		committed = df.Workloads
		var err error
		if golden, err = os.ReadFile(goldenPath); err != nil {
			return err
		}
	}

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(stdout, *workDir, *seed, committed, golden)
	} else {
		res, err = runTimed(stdout, *workload, *workDir, *seed, *seconds, committed, golden)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runTimed runs one workload untraced and reports the end-to-end metrics.
func runTimed(w io.Writer, workload, workDir string, seed uint64, seconds float64, committed map[string]map[string]string, golden []byte) (result, error) {
	var m map[string]float64
	var attempted, failed int
	var problems []string
	var err error
	switch workload {
	case "sim-1core", "sim-4core":
		build, rounds := buildSim1, minRounds
		if workload == "sim-4core" {
			build, rounds = buildSim4, sim4MinRounds
		}
		var want map[string]string
		if committed != nil {
			if want = committed[workload]; want == nil {
				return result{}, fmt.Errorf("digests.json has no %s digests", workload)
			}
		}
		var o *simOutcome
		if o, err = runSimWorkload(build, rounds, seed, seconds, want); err != nil {
			return result{}, err
		}
		attempted, failed, problems = o.attempted, o.failed, o.mismatch
		fmt.Fprintf(w, "%s: %d cold and %d warm passes of %d simulations\n", workload, len(o.coldS), len(o.warmS), attempted/(len(o.coldS)+len(o.warmS)))
		fmt.Fprintf(w, "pass times (s): cold %.3f, warm %.3f\n", o.coldS, o.warmS)
		printTail(w, "simulations", caseMedians(o.caseMs))
		m, err = o.metrics()
	case "exp-store":
		var o *storeOutcome
		if o, err = runStoreWorkload(workDir, seed, seconds, golden); err != nil {
			return result{}, err
		}
		attempted, failed, problems = o.attempted, o.failed, o.problems
		fmt.Fprintf(w, "exp-store: %d cold and %d warm passes, %d engine jobs\n", len(o.coldS), len(o.warmS), attempted)
		fmt.Fprintf(w, "pass times (s): cold %.3f, warm %.3f\n", o.coldS, o.warmS)
		printTail(w, "simulated jobs", o.jobMedians())
		m, err = o.metrics()
	}
	if err != nil {
		return result{}, err
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	printMetrics(w, m, endToEndUnits)
	return newResult(attempted, failed, m, endToEndUnits)
}

// printTail states the sample count behind sim_ms and the highest
// percentile those samples support.
func printTail(w io.Writer, what string, ms []float64) {
	fmt.Fprintf(w, "sim_ms percentiles over the median times of %d %s (p90 has %d beyond it)", len(ms), what, samplesBeyond(len(ms), 90))
	if p, ok := tailPercentile(len(ms)); ok {
		v, _ := percentile(ms, p)
		fmt.Fprintf(w, "; highest percentile with %d beyond it: p%g = %.4g ms", minBeyond, p, v)
	}
	fmt.Fprintln(w)
}

// newResult assembles the final line, insisting that every metric of the
// set is present.
func newResult(attempted, failed int, m map[string]float64, units map[string]string) (result, error) {
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(m) != len(units) {
		return result{}, errors.New("measured a metric the set does not name")
	}
	return res, nil
}

// printMetrics prints every metric by name with its unit.
func printMetrics(w io.Writer, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m[n], units[n])
	}
}

// saveDigests runs one replay pass of each sim-* workload on the default
// seed and writes their digests, after checking that live generation and
// replay agree.
func saveDigests(path string) error {
	df := digestFile{Params: digestParams(), Workloads: map[string]map[string]string{}}
	for name, build := range map[string]func(uint64) ([]*simCase, error){"sim-1core": buildSim1, "sim-4core": buildSim4} {
		cases, err := build(defaultSeed)
		if err != nil {
			return err
		}
		dc := newDigestChecker(nil)
		if n := dc.check(cases, runPass(cases, false)) + dc.check(cases, runPass(cases, true)); n != 0 {
			return fmt.Errorf("%s: %d simulations failed: %v", name, n, dc.mismatch)
		}
		df.Workloads[name] = dc.seen
	}
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
