// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs the
// corresponding experiment at a reduced instruction budget and reports the
// headline quantity as a custom metric so `go test -bench . -benchmem`
// doubles as the reproduction harness. Full-size reports come from
// `go run ./cmd/tpcsim -exp <name>`.
//
// Every iteration gets a fresh runner.Engine so the memoized run cache never
// carries results across iterations: ns/op measures the real simulation
// work of one experiment (with intra-experiment dedup, as in production).
package main

import (
	"context"
	"io"
	"testing"

	"divlab/internal/dram"
	"divlab/internal/exp"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/stats"
	"divlab/internal/workloads"
)

func benchOptions() exp.Options { return exp.QuickOptions() }

// runExp drives one registered experiment per iteration.
func runExp(b *testing.B, name string) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Engine = runner.New()
		if err := exp.Run(name, exp.TextSink(io.Discard), o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExp(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExp(b, "table2") }
func BenchmarkFig1(b *testing.B)   { runExp(b, "fig1") }
func BenchmarkFig9(b *testing.B)   { runExp(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExp(b, "fig10") }
func BenchmarkFig12(b *testing.B)  { runExp(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExp(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExp(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExp(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExp(b, "fig16") }

// fig8Jobs builds the Fig. 8 (app × prefetcher) matrix with the leading
// baseline column.
func fig8Jobs(o exp.Options, pfs []sim.Named) []runner.Job {
	cfg := sim.DefaultConfig(o.Insts)
	cfg.Seed = o.Seed
	var jobs []runner.Job
	for _, w := range workloads.SPEC() {
		jobs = append(jobs, runner.Job{Workload: w, Prefetcher: sim.Baseline(), Config: cfg})
		for _, p := range pfs {
			jobs = append(jobs, runner.Job{Workload: w, Prefetcher: p, Config: cfg})
		}
	}
	return jobs
}

// BenchmarkFig8 additionally reports the headline geomean speedups.
func BenchmarkFig8(b *testing.B) {
	o := benchOptions()
	pfs := sim.AllEvaluated()
	cols := len(pfs) + 1
	var tpcG, bestMono float64
	for i := 0; i < b.N; i++ {
		res := runner.New().Run(context.Background(), fig8Jobs(o, pfs))
		per := make(map[string][]float64)
		for a := 0; a < len(res); a += cols {
			base := res[a]
			if base.IPC() == 0 {
				continue
			}
			for j, p := range pfs {
				per[p.Name] = append(per[p.Name], res[a+1+j].IPC()/base.IPC())
			}
		}
		tpcG, bestMono = 0, 0
		for _, p := range pfs {
			g := stats.Geomean(per[p.Name])
			if p.Name == "tpc" {
				tpcG = g
			} else if g > bestMono {
				bestMono = g
			}
		}
	}
	b.ReportMetric(tpcG, "tpc-geomean")
	b.ReportMetric(bestMono, "best-monolithic-geomean")
}

// BenchmarkFig11 reports the all-suite speedup of TPC vs the field.
func BenchmarkFig11(b *testing.B) { runExp(b, "fig11") }

// BenchmarkDropPolicy reports the multicore gain from priority-aware
// prefetch dropping (Sec. V-C1).
func BenchmarkDropPolicy(b *testing.B) {
	o := benchOptions()
	tpcN := sim.TPCFull()
	var gain float64
	for i := 0; i < b.N; i++ {
		eng := runner.New()
		mixes := workloads.Mixes(o.MixCount, o.Seed+77)
		cfg := sim.DefaultConfig(o.Insts)
		cfg.Cores = 4
		cfg.Seed = o.Seed
		cfg.DropPolicy = dram.DropRandomPrefetch
		cfgPri := cfg
		cfgPri.DropPolicy = dram.DropLowPriorityPrefetch
		var jobs []runner.Job
		for _, mix := range mixes {
			jobs = append(jobs,
				runner.Job{Mix: mix, Prefetcher: sim.Baseline(), Config: cfg},
				runner.Job{Mix: mix, Prefetcher: tpcN, Config: cfg},
				runner.Job{Mix: mix, Prefetcher: tpcN, Config: cfgPri})
		}
		res := eng.Run(context.Background(), jobs)
		// Each job owns cfg.Cores consecutive slots of the flattened output.
		job := func(i int) []*sim.Result { return res[i*cfg.Cores : (i+1)*cfg.Cores] }
		var rnd, pri []float64
		for mi := range mixes {
			base := job(3 * mi)
			ws := func(rs []*sim.Result) float64 {
				s := 0.0
				for k := range rs {
					if bb := base[k].IPC(); bb > 0 {
						s += rs[k].IPC() / bb
					}
				}
				return s / float64(len(rs))
			}
			rnd = append(rnd, ws(job(3*mi+1)))
			pri = append(pri, ws(job(3*mi+2)))
		}
		gr, gp := stats.Geomean(rnd), stats.Geomean(pri)
		if gr > 0 {
			gain = gp/gr - 1
		}
	}
	b.ReportMetric(100*gain, "drop-policy-gain-%")
}

// BenchmarkParallelMatrix measures the engine itself on the Fig. 8 matrix:
// one batch of unique simulations fanned out across the worker pool, then
// the same batch again served from the run cache (the fig8→fig9 reuse
// pattern in exp.RunAll). Reports executed simulations per second and the
// overall cache-hit rate. Counters are accumulated across every iteration's
// engine — the old version read only the final engine's stats while scaling
// by b.N, so the reported rates covered 1/b.N of the measured work.
func BenchmarkParallelMatrix(b *testing.B) {
	o := benchOptions()
	jobs := fig8Jobs(o, sim.AllEvaluated())
	var hits, misses uint64
	workers := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := runner.New()
		eng.Run(context.Background(), jobs)
		eng.Run(context.Background(), jobs)
		h, m := eng.Stats()
		hits += h
		misses += m
		workers = eng.Workers()
	}
	b.StopTimer()
	b.ReportMetric(float64(misses)/b.Elapsed().Seconds(), "sims/sec")
	b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-rate")
	b.ReportMetric(float64(hits+misses)/float64(b.N), "jobs/op")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSimulator measures raw simulation throughput (insts/sec) of the
// core+hierarchy substrate, independent of any experiment. The instruction
// stream is recorded once and replayed per iteration — the path the engine
// itself uses across the experiment matrix — so the number tracks the
// simulator, not the workload generator.
func BenchmarkSimulator(b *testing.B) {
	w, _ := workloads.ByName("stream.pure")
	tpc, _ := sim.ByName("tpc")
	cfg := sim.DefaultConfig(100_000)
	rec := sim.Record(w, cfg.Seed, cfg.Insts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunSingleOn(rec.Instance(), w, tpc.Factory, cfg)
	}
	b.StopTimer()
	b.SetBytes(int64(cfg.Insts))
	b.ReportMetric(float64(cfg.Insts)*float64(b.N)/b.Elapsed().Seconds(), "insts/sec")
}

// BenchmarkAccessPath measures the per-access demand path in isolation: an
// L1-resident line accessed through the full hierarchy + prefetcher
// accounting stack. This is the innermost hot loop of every simulation; the
// alloc regression tests pin it at zero allocations and this benchmark
// tracks its cycle cost.
func BenchmarkAccessPath(b *testing.B) {
	w, _ := workloads.ByName("stream.pure")
	tpc, _ := sim.ByName("tpc")
	hp := sim.NewHotPath(w, tpc.Factory, sim.DefaultConfig(0))
	const pc, base = 0x400100, 1 << 28
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A 32 KB working set: after one warmup lap every access is an
		// L1 hit — the steady-state demand path the 0-alloc tests pin.
		hp.Access(pc, base+uint64(i&511)*64, false)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/sec")
}

// BenchmarkAblation regenerates the design-choice ablations (mPC, adaptive
// distance, C1 density) DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) { runExp(b, "ablation") }
