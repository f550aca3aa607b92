// Command sweep runs ablation parameter sweeps over the design choices
// DESIGN.md calls out: prefetch degree, SPP's confidence threshold, the
// prefetch destination level, and the per-app baseline characterization.
//
// Sweeps are resumable, shardable grid computations over the persistent
// result store (internal/sweep): every grid point has a stable content
// address, finished points are skipped on re-run, in-flight points are
// leased so concurrent processes never duplicate work, and the final report
// is assembled from the store in deterministic grid order — a sweep split
// across shards (or killed and restarted) is byte-identical to a single
// uninterrupted run.
//
//	sweep -what degree -store /tmp/divlab              # run + report
//	sweep -what degree -store /tmp/divlab -shard 0/2   # this half only
//	sweep -what degree -store /tmp/divlab -shard 1/2   # other half (any machine)
//	sweep -what degree -store /tmp/divlab -merge       # assemble the report
//
// Without -store, results live in memory and die with the process (exactly
// the pre-store behaviour). Interrupting a -store run with ^C is safe at any
// moment: re-running completes exactly the remaining points.
//
// Like tpcsim, -json moves the text table to stderr and emits one validated
// divlab.exp/v1 report on stdout, -progress keeps a live counter line on
// stderr, and -pprof serves net/http/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/prefetch"
	"divlab/internal/prefetchers"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/stats"
	"divlab/internal/store"
	"divlab/internal/sweep"
	"divlab/internal/workloads"
)

func main() {
	var (
		what      = flag.String("what", "degree", "sweep: degree | spp-threshold | destination | mshr-apps")
		insts     = flag.Uint64("insts", 150_000, "instructions per run")
		jobs      = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, or TPCSIM_WORKERS)")
		storeDir  = flag.String("store", "", "persistent result store directory (empty: in-memory, dies with the process)")
		shardSpec = flag.String("shard", "", "compute only shard i of n, as i/n (e.g. 0/2); report comes from a later -merge")
		merge     = flag.Bool("merge", false, "skip simulation; assemble the report from the store (errors on missing points)")
		leaseTTL  = flag.Duration("lease-ttl", sweep.DefaultLeaseTTL, "per-point lease expiry (bounds how long a crashed shard blocks a point)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON report (schema "+obs.SchemaVersion+") on stdout; text moves to stderr")
		progress  = flag.Bool("progress", false, "live progress line (runs, cache hits, sims/sec) on stderr")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if err := run(*what, *insts, *jobs, *storeDir, *shardSpec, *merge, *leaseTTL, *jsonOut, *progress, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(what string, insts uint64, jobs int, storeDir, shardSpec string, merge bool, leaseTTL time.Duration, jsonOut, progress bool, pprofAddr string) error {
	g, err := gridFor(what, insts)
	if err != nil {
		return err
	}
	shard, shards, err := parseShard(shardSpec)
	if err != nil {
		return err
	}

	eng := runner.Default()
	if jobs > 0 {
		eng.SetWorkers(jobs)
	}
	var st store.Store
	if storeDir != "" {
		fsStore, err := store.OpenFS(storeDir)
		if err != nil {
			return err
		}
		st = fsStore
		// Job-level results persist too: an interrupted point resumes
		// without re-simulating its finished jobs.
		eng.SetStore(fsStore)
	} else {
		st = store.NewMem()
	}

	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: pprof:", err)
			}
		}()
	}
	if progress {
		p := obs.NewProgress()
		eng.SetProgress(p)
		stop := p.Start(os.Stderr, 500*time.Millisecond)
		defer stop()
	}

	textW := io.Writer(os.Stdout)
	if jsonOut {
		textW = os.Stderr
	}

	if !merge {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		sum, err := sweep.Run(ctx, g, sweep.Options{
			Store: st, Engine: eng, Shard: shard, Shards: shards, LeaseTTL: leaseTTL,
		})
		if err != nil {
			if ctx.Err() != nil && storeDir != "" {
				return fmt.Errorf("interrupted after %d points; re-run with the same -store to resume", sum.Computed)
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: %s: %d computed, %d already stored", g.Name, sum.Computed, sum.Hits)
		if len(sum.Pending) > 0 {
			fmt.Fprintf(os.Stderr, ", %d leased elsewhere (%v)", len(sum.Pending), sum.Pending)
		}
		fmt.Fprintln(os.Stderr)
		if shards > 1 {
			// A shard computes; the report belongs to -merge once every
			// shard is done.
			return nil
		}
		if len(sum.Pending) > 0 {
			return fmt.Errorf("%d points still leased by another process; re-run or -merge once they finish", len(sum.Pending))
		}
	}

	rows, missing, err := sweep.Merge(g, st)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("%d of %d points missing from the store (%v): run the remaining shards first", len(missing), len(g.Points), missing)
	}
	if err := g.Render(textW, rows); err != nil {
		return err
	}
	if jsonOut {
		rep, err := sweep.Report(g, rows)
		if err != nil {
			return err
		}
		return obs.EncodeReports(os.Stdout, []*obs.Report{rep})
	}
	return nil
}

// parseShard reads exactly "i/n", two unsigned decimals (empty: the whole
// grid).
func parseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, _ := strings.Cut(s, "/")
	i, errI := strconv.ParseUint(is, 10, 31)
	n, errN := strconv.ParseUint(ns, 10, 31)
	if errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", s)
	}
	if n < 1 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < n", s)
	}
	return int(i), int(n), nil
}

func gridFor(what string, insts uint64) (sweep.Grid, error) {
	switch what {
	case "degree":
		return degreeGrid(insts), nil
	case "spp-threshold":
		return sppGrid(insts), nil
	case "destination":
		return destinationGrid(insts), nil
	case "mshr-apps":
		return mshrAppsGrid(insts), nil
	}
	return sweep.Grid{}, fmt.Errorf("unknown -what %q", what)
}

// geomeanPoint builds one sweep point: pf over the SPEC-like suite, reduced
// to the geomean speedup against no-prefetch. The sweep-point name is the
// run-cache identity, so every distinct configuration must carry a distinct
// name; the baseline jobs share one key across every point and simulate (or
// load) once.
func geomeanPoint(id string, pf sim.Named, insts uint64, row obs.Row) sweep.Point {
	cfg := sim.DefaultConfig(insts)
	apps := workloads.SPEC()
	jobs := make([]runner.Job, 0, 2*len(apps))
	for _, w := range apps {
		jobs = append(jobs,
			runner.Job{Workload: w, Prefetcher: sim.Baseline(), Config: cfg},
			runner.Job{Workload: w, Prefetcher: pf, Config: cfg})
	}
	return sweep.Point{
		ID:   id,
		Jobs: jobs,
		Eval: func(res []*sim.Result) []obs.Row {
			var xs []float64
			for i := 0; i < len(res); i += 2 {
				if b := res[i].IPC(); b > 0 {
					xs = append(xs, res[i+1].IPC()/b)
				}
			}
			row.Value = stats.Geomean(xs)
			return []obs.Row{row}
		},
	}
}

func degreeGrid(insts uint64) sweep.Grid {
	var points []sweep.Point
	type variant struct {
		pf  string
		deg int
	}
	var order []variant
	for _, deg := range []int{1, 2, 4, 8} {
		d := deg
		order = append(order, variant{"stride", d})
		points = append(points, geomeanPoint(
			fmt.Sprintf("stride-deg=%d", d),
			sim.Named{
				Name:    fmt.Sprintf("sweep:stride-deg=%d", d),
				Factory: func(workloads.Instance) prefetch.Component { return prefetchers.NewStride(mem.L1, 256, d) },
			},
			insts,
			obs.Row{Prefetcher: "stride", Variant: fmt.Sprintf("degree=%d", d), Metric: "speedup_geomean"},
		))
	}
	for _, deg := range []int{1, 2, 4, 8} {
		d := deg
		order = append(order, variant{"ampm", d})
		points = append(points, geomeanPoint(
			fmt.Sprintf("ampm-deg=%d", d),
			sim.Named{
				Name:    fmt.Sprintf("sweep:ampm-deg=%d", d),
				Factory: func(workloads.Instance) prefetch.Component { return prefetchers.NewAMPM(mem.L1, 16, d) },
			},
			insts,
			obs.Row{Prefetcher: "ampm", Variant: fmt.Sprintf("degree=%d", d), Metric: "speedup_geomean"},
		))
	}
	return sweep.Grid{
		Name: "degree", Insts: insts, Points: points,
		Render: func(w io.Writer, rows [][]obs.Row) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "prefetcher\tdegree\tgeomean speedup")
			for i, v := range order {
				fmt.Fprintf(tw, "%s\t%d\t%.3f\n", v.pf, v.deg, rows[i][0].Value)
			}
			return tw.Flush()
		},
	}
}

func sppGrid(insts uint64) sweep.Grid {
	ths := []int{10, 25, 50, 75}
	var points []sweep.Point
	for _, th := range ths {
		t := th
		points = append(points, geomeanPoint(
			fmt.Sprintf("spp-th=%d", t),
			sim.Named{
				Name:    fmt.Sprintf("sweep:spp-th=%d", t),
				Factory: func(workloads.Instance) prefetch.Component { return prefetchers.NewSPP(mem.L1, t, 8) },
			},
			insts,
			obs.Row{Prefetcher: "spp", Variant: fmt.Sprintf("threshold=%d", t), Metric: "speedup_geomean"},
		))
	}
	return sweep.Grid{
		Name: "spp-threshold", Insts: insts, Points: points,
		Render: func(w io.Writer, rows [][]obs.Row) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "path-confidence threshold\tgeomean speedup")
			for i, t := range ths {
				fmt.Fprintf(tw, "%d%%\t%.3f\n", t, rows[i][0].Value)
			}
			return tw.Flush()
		},
	}
}

func destinationGrid(insts uint64) sweep.Grid {
	type cell struct {
		name string
		lvl  mem.Level
	}
	var order []cell
	var points []sweep.Point
	for _, p := range []struct {
		name string
		mk   func(mem.Level) prefetch.Component
	}{
		{"bop", func(l mem.Level) prefetch.Component { return prefetchers.NewBOP(l) }},
		{"sms", func(l mem.Level) prefetch.Component { return prefetchers.NewSMS(l) }},
		{"ampm", func(l mem.Level) prefetch.Component { return prefetchers.NewAMPM(l, 16, 2) }},
	} {
		for _, lvl := range []mem.Level{mem.L1, mem.L2} {
			mk, l := p.mk, lvl
			order = append(order, cell{p.name, l})
			points = append(points, geomeanPoint(
				fmt.Sprintf("%s-dest=%s", p.name, l),
				sim.Named{
					Name:    fmt.Sprintf("sweep:%s-dest=%s", p.name, l),
					Factory: func(workloads.Instance) prefetch.Component { return mk(l) },
				},
				insts,
				obs.Row{Prefetcher: p.name, Variant: l.String(), Metric: "speedup_geomean"},
			))
		}
	}
	return sweep.Grid{
		Name: "destination", Insts: insts, Points: points,
		Render: func(w io.Writer, rows [][]obs.Row) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "prefetcher\tdest\tgeomean speedup")
			for i, c := range order {
				fmt.Fprintf(tw, "%s\t%s\t%.3f\n", c.name, c.lvl, rows[i][0].Value)
			}
			return tw.Flush()
		},
	}
}

func mshrAppsGrid(insts uint64) sweep.Grid {
	cfg := sim.DefaultConfig(insts)
	apps := workloads.All()
	points := make([]sweep.Point, 0, len(apps))
	for _, app := range apps {
		w := app
		points = append(points, sweep.Point{
			ID:   "app=" + w.Name,
			Jobs: []runner.Job{{Workload: w, Prefetcher: sim.Baseline(), Config: cfg}},
			Eval: func(res []*sim.Result) []obs.Row {
				r := res[0]
				return []obs.Row{
					{Workload: w.Name, Metric: "ipc", Value: r.IPC()},
					{Workload: w.Name, Metric: "l1_mpki", Value: r.MPKI()},
					{Workload: w.Name, Metric: "l2_misses", Value: float64(r.L2Misses)},
					{Workload: w.Name, Metric: "traffic_lines", Value: float64(r.Traffic)},
				}
			},
		})
	}
	return sweep.Grid{
		Name: "mshr-apps", Insts: insts, Points: points,
		Render: func(w io.Writer, rows [][]obs.Row) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "workload\tsuite\tIPC\tL1 MPKI\tL2 misses\ttraffic lines")
			for i, app := range apps {
				r := rows[i]
				fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.1f\t%d\t%d\n",
					app.Name, app.Suite, r[0].Value, r[1].Value, uint64(r[2].Value), uint64(r[3].Value))
			}
			return tw.Flush()
		},
	}
}
