// Command tpcsim reproduces the paper's evaluation. It can run a single
// (workload, prefetcher) pair, or regenerate any table/figure experiment:
//
//	tpcsim -list
//	tpcsim -exp fig8
//	tpcsim -exp all -insts 500000
//	tpcsim -exp speedups -json -lifecycle > report.json
//	tpcsim -workload chase.rand -prefetcher tpc
//	tpcsim -workload chase.rand -prefetcher ghb:entries=512,degree=8 -trace 20
//	tpcsim -validate report.json
//
// Experiments run on the parallel engine in internal/runner: -j bounds the
// worker pool (default GOMAXPROCS or $TPCSIM_WORKERS) and a memoized run
// cache shares the no-prefetch baseline across experiments. Reports are
// byte-identical at any -j.
//
// With -json, stdout carries only the machine-readable report (schema
// divlab.exp/v1, one JSON object per experiment in an array) and the text
// report moves to stderr, so `tpcsim -exp speedups -json | jq .` works.
// -lifecycle turns on ground-truth prefetch-lifecycle tracing; the traced
// counters appear in the JSON report and are checked for conservation
// (attempted = deduped + dropped + installed; installed = hit + evicted +
// resident) before the report is emitted.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"divlab/internal/exp"
	"divlab/internal/obs"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpcsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expName   = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list      = flag.Bool("list", false, "list experiments, prefetchers and workloads")
		workload  = flag.String("workload", "", "single workload to run")
		pf        = flag.String("prefetcher", "tpc", "prefetcher spec for -workload (none, tpc, bop, ghb:entries=512,degree=8, tpc+bop, ...)")
		insts     = flag.Uint64("insts", 300_000, "instructions per simulation")
		seed      = flag.Uint64("seed", 1, "workload/controller seed")
		mixes     = flag.Int("mixes", 8, "number of 4-core mixes for multicore experiments")
		useBPred  = flag.Bool("bpred", false, "use the TAGE + loop predictor instead of workload mispredict flags (single-workload mode)")
		jobs      = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, or TPCSIM_WORKERS)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON report (schema "+obs.SchemaVersion+") on stdout; text moves to stderr")
		lifecycle = flag.Bool("lifecycle", false, "trace prefetch lifecycles (ground-truth counters in reports)")
		traceN    = flag.Int("trace", 0, "single-workload mode: print the first N lifecycle events")
		progress  = flag.Bool("progress", false, "live progress line (runs, cache hits, sims/sec) on stderr")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		validate  = flag.String("validate", "", "validate a JSON report file and exit")
		storeDir  = flag.String("store", "", "persistent result store directory (read-through/write-behind below the run cache)")
		keyOnly   = flag.Bool("key", false, "print the content address (canonical key + digest) for -workload/-prefetcher and exit")
	)
	flag.Parse()

	if *storeDir != "" {
		fsStore, err := store.OpenFS(*storeDir)
		if err != nil {
			return err
		}
		runner.Default().SetStore(fsStore)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tpcsim: pprof:", err)
			}
		}()
	}

	switch {
	case *validate != "":
		return validateReport(*validate)
	case *list:
		printList(os.Stdout)
		return nil
	case *keyOnly:
		return printKey(os.Stdout, *workload, *pf, *insts, *seed, *useBPred)
	case *expName != "":
		err := runExperiments(*expName, exp.Options{
			Insts: *insts, Seed: *seed, MixCount: *mixes,
			Workers: *jobs, Lifecycle: *lifecycle || *jsonOut,
		}, *jsonOut, *progress)
		if *storeDir != "" && err == nil {
			e := runner.Default()
			cacheHits, _ := e.Stats()
			s := e.StoreStats()
			fmt.Fprintf(os.Stderr, "store: jobs=%d cache-hits=%d store-hits=%d derived=%d sims=%d puts=%d errs=%d\n",
				e.Jobs(), cacheHits, s.Hits, e.Derived(), e.Sims(), s.Puts, s.Errs)
		}
		return err
	case *workload != "":
		return runWorkload(*workload, *pf, *insts, *seed, *useBPred, *traceN, *jsonOut)
	default:
		flag.Usage()
		os.Exit(2)
		return nil
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, n := range exp.Names() {
		fmt.Fprintf(w, "  %-12s %s\n", n, exp.Describe(n))
	}
	fmt.Fprintln(w, "prefetchers (spec grammar: name[:k=v,...] | tpc+name | shunt+name):")
	for _, p := range sim.List() {
		name := p.Name
		if len(p.Aliases) > 0 {
			name += " (" + strings.Join(p.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "  %-16s %s\n", name, p.Desc)
		if len(p.Params) > 0 {
			fmt.Fprintf(w, "  %-16s params: %s\n", "", strings.Join(p.Params, ", "))
		}
	}
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads.All() {
		fmt.Fprintf(w, "  %-16s (%s)\n", wl.Name, wl.Suite)
	}
}

// runExperiments executes one experiment (or all) through a sink. With JSON
// output the text report moves to stderr and stdout carries the report array.
func runExperiments(name string, o exp.Options, jsonOut, progress bool) error {
	textW := io.Writer(os.Stdout)
	if jsonOut {
		textW = os.Stderr
	}
	s := exp.NewSink(textW, jsonOut)

	if progress {
		p := obs.NewProgress()
		eng := runner.Default()
		if o.Engine != nil {
			eng = o.Engine
		}
		eng.SetProgress(p)
		stop := p.Start(os.Stderr, 500*time.Millisecond)
		defer func() {
			stop()
			eng.SetProgress(nil)
		}()
	}

	var err error
	if name == "all" {
		err = exp.RunAll(s, o)
	} else {
		err = exp.Run(name, s, o)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		return obs.EncodeReports(os.Stdout, s.Reports)
	}
	return nil
}

// runWorkload runs one (workload, prefetcher) pair, optionally tracing
// lifecycle events and emitting a small JSON report.
func runWorkload(workload, pfSpec string, insts, seed uint64, useBPred bool, traceN int, jsonOut bool) error {
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	cfg := sim.DefaultConfig(insts)
	cfg.Seed = seed
	cfg.UseBPred = useBPred

	textW := io.Writer(os.Stdout)
	if jsonOut {
		textW = os.Stderr
	}

	base := sim.RunSingle(w, nil, cfg)
	fmt.Fprintf(textW, "%s baseline: IPC=%.3f MPKI=%.1f misses=%d traffic=%d lines\n",
		w.Name, base.IPC(), base.MPKI(), base.L1Misses, base.Traffic)

	report := obs.NewReport("workload", "single (workload, prefetcher) run",
		obs.RunConfig{Insts: insts, Seed: seed})
	report.AddRow(obs.Row{Workload: w.Name, Prefetcher: "none", Metric: "ipc", Value: base.IPC()})

	if pfSpec != "none" {
		n, err := sim.ByName(pfSpec)
		if err != nil {
			return err
		}
		pfCfg := cfg
		var tracer *obs.TextTracer
		if traceN > 0 || jsonOut {
			pfCfg.TraceLifecycle = true
			if traceN > 0 {
				tracer = obs.NewTextTracer(textW, nil, uint64(traceN))
				pfCfg.TraceSink = tracer
			}
		}
		r := sim.RunSingle(w, n.Factory, pfCfg)
		if tracer != nil {
			if err := tracer.Err(); err != nil {
				return err
			}
		}
		fmt.Fprintf(textW, "%s %s: IPC=%.3f speedup=%.3f misses=%d issued=%d traffic=%d lines\n",
			w.Name, n.Name, r.IPC(), r.IPC()/base.IPC(), r.L1Misses, r.Issued, r.Traffic)
		report.AddRow(obs.Row{Workload: w.Name, Prefetcher: n.Name, Metric: "ipc", Value: r.IPC()})
		report.AddRow(obs.Row{Workload: w.Name, Prefetcher: n.Name, Metric: "speedup", Value: r.IPC() / base.IPC()})
		if lc := r.Lifecycle; lc != nil {
			t := lc.Totals()
			fmt.Fprintf(textW, "lifecycle: attempted=%d deduped=%d dropped(mshr)=%d dropped(dram)=%d installed=%d hit=%d evicted=%d resident=%d\n",
				t.Attempted, t.Deduped, t.DroppedMSHR, t.DroppedDRAM,
				t.InstalledTotal(), t.DemandHitsTotal(), t.EvictedTotal(), t.ResidentTotal())
			b := obs.LifecycleBlock{Workload: w.Name, Prefetcher: n.Name, Total: t.Flatten()}
			for id := 0; id <= lc.Owners(); id++ {
				c := lc.Counts(id)
				if (c == obs.OwnerCounts{}) {
					continue
				}
				b.PerOwner = append(b.PerOwner, obs.OwnerLifecycle{Owner: id, Name: r.Names[id], LifecycleCounts: c.Flatten()})
			}
			report.AddLifecycle(b)
			if err := lc.Check(); err != nil {
				return fmt.Errorf("lifecycle conservation violated: %w", err)
			}
		}
	}
	if jsonOut {
		if err := report.Validate(); err != nil {
			return err
		}
		return obs.EncodeReports(os.Stdout, []*obs.Report{report})
	}
	return nil
}

// printKey prints the content address — the canonical versioned key text and
// its SHA-256 digest — that the engine and persistent store would use for the
// given (workload, prefetcher) run. Useful for locating a run's record in a
// store directory or checking what a config change does to run identity.
func printKey(out io.Writer, workload, pfSpec string, insts, seed uint64, useBPred bool) error {
	if workload == "" {
		return fmt.Errorf("-key needs -workload (and optionally -prefetcher)")
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	pf, err := sim.ByName(pfSpec)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(insts)
	cfg.Seed = seed
	cfg.UseBPred = useBPred
	k, ok := runner.KeyOf(runner.Job{Workload: w, Prefetcher: pf, Config: cfg})
	if !ok {
		return fmt.Errorf("job is uncacheable (no stable key)")
	}
	_, err = fmt.Fprintf(out, "%sdigest=%s\n", k.Canonical(), k.Digest())
	return err
}

// validateReport decodes and validates a report file written with -json.
func validateReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	reports, err := obs.DecodeReports(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range reports {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: experiment %s: %w", path, r.Experiment, err)
		}
	}
	fmt.Printf("%s: %d report(s) valid (%s)\n", path, len(reports), obs.SchemaVersion)
	return nil
}
