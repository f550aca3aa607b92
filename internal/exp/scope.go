package exp

import (
	"fmt"
	"text/tabwriter"

	"divlab/internal/obs"
	"divlab/internal/sim"
	"divlab/internal/stats"
	"divlab/internal/workloads"
)

func init() {
	register("fig1", "accuracy vs scope for AMPM, BOP and SMS with global averages (Fig. 1)", fig1)
	register("fig10", "effective accuracy vs scope, per app per prefetcher, with regression (Fig. 10)", fig10)
	register("fig12", "eff. accuracy & coverage vs scope at L1/L2; TPC built up component by component (Fig. 12)", fig12)
	register("fig13", "LHF/MHF/HHF stratified effective accuracy and scope (Fig. 13)", fig13)
}

// pickNamed resolves registry names, panicking on typos (programming error).
func pickNamed(names ...string) []sim.Named {
	out := make([]sim.Named, 0, len(names))
	for _, n := range names {
		out = append(out, sim.MustByName(n))
	}
	return out
}

func fig1(w *Sink, o Options) error {
	pfs := pickNamed("ampm", "bop", "sms")
	runs := runMatrix(workloads.SPEC(), pfs, o, true)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "prefetcher\tbenchmark\tscope\teff.accuracy")
	for _, p := range pfs {
		for _, r := range runs {
			pr := r.pair(p.Name)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", p.Name, r.W.Name, pct(pr.Scope()), pct(pr.EffAccuracyL1()))
			w.Row(obs.Row{Workload: r.W.Name, Prefetcher: p.Name, Metric: "scope", Value: pr.Scope()})
			w.Row(obs.Row{Workload: r.W.Name, Prefetcher: p.Name, Metric: "eff_accuracy_l1", Value: pr.EffAccuracyL1()})
		}
		gScope, gAcc, _ := globalAverage(runs, p.Name)
		fmt.Fprintf(tw, "%s\tGLOBAL\t%s\t%s\n", p.Name, pct(gScope), pct(gAcc))
		w.Aggregate(obs.Row{Prefetcher: p.Name, Metric: "scope_global", Value: gScope})
		w.Aggregate(obs.Row{Prefetcher: p.Name, Metric: "eff_accuracy_global", Value: gAcc})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// The paper's panels are scatter plots; draw them.
	for _, p := range pfs {
		sp := &scatter{title: p.Name + " (o = app, * = global average)", xlab: "scope", ylab: "accuracy"}
		for _, r := range runs {
			pr := r.pair(p.Name)
			sp.add(pr.Scope(), pr.EffAccuracyL1(), 'o')
		}
		if gScope, gAcc, ok := globalAverage(runs, p.Name); ok {
			sp.add(gScope, gAcc, '*')
		}
		sp.render(w)
	}
	return nil
}

// globalAverage is the prefetcher's scope and effective accuracy over one
// large window strung from the individual applications: the raw counts of
// every app are summed before dividing. Each ratio is 0 when its
// denominator is; ok reports that neither is.
func globalAverage(runs []*appRun, name string) (scope, acc float64, ok bool) {
	var covered, total, issued uint64
	var avoided int64
	for _, r := range runs {
		pr := r.pair(name)
		c, t := pr.ScopeWeights()
		covered, total = covered+c, total+t
		avoided += int64(r.Base.L1Misses) - int64(pr.PF.L1Misses)
		issued += pr.PF.Issued
	}
	if total > 0 {
		scope = float64(covered) / float64(total)
	}
	if issued > 0 {
		acc = float64(avoided) / float64(issued)
	}
	return scope, acc, total > 0 && issued > 0
}

func fig10(w *Sink, o Options) error {
	pfs := evaluatedSet()
	runs := runMatrix(workloads.SPEC(), pfs, o, true)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "prefetcher\tbenchmark\tscope\teff.accuracy\tprefetches")
	type summary struct{ scope, acc float64 }
	sums := make([]summary, 0, len(pfs))
	for _, p := range pfs {
		var scopes, accs, weights []float64
		for _, r := range runs {
			pr := r.pair(p.Name)
			sc, ac := pr.Scope(), pr.EffAccuracyL1()
			wgt := float64(pr.PF.Issued)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", p.Name, r.W.Name, pct(sc), pct(ac), pr.PF.Issued)
			w.Row(obs.Row{Workload: r.W.Name, Prefetcher: p.Name, Metric: "scope", Value: sc})
			w.Row(obs.Row{Workload: r.W.Name, Prefetcher: p.Name, Metric: "eff_accuracy_l1", Value: ac})
			scopes, accs, weights = append(scopes, sc), append(accs, ac), append(weights, wgt)
		}
		ws := stats.WeightedMean(scopes, weights)
		wa := stats.WeightedMean(accs, weights)
		fmt.Fprintf(tw, "%s\tAVERAGE\t%s\t%s\t\n", p.Name, pct(ws), pct(wa))
		w.Aggregate(obs.Row{Prefetcher: p.Name, Metric: "scope_wmean", Value: ws})
		w.Aggregate(obs.Row{Prefetcher: p.Name, Metric: "eff_accuracy_wmean", Value: wa})
		sums = append(sums, summary{ws, wa})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	xs := make([]float64, len(sums))
	ys := make([]float64, len(sums))
	for i, s := range sums {
		xs[i], ys[i] = s.scope, s.acc
	}
	a, b := stats.Linreg(xs, ys)
	fmt.Fprintf(w, "scope->accuracy regression over prefetcher averages: acc = %.3f %+.3f*scope\n", a, b)
	w.Aggregate(obs.Row{Metric: "regression_intercept", Value: a})
	w.Aggregate(obs.Row{Metric: "regression_slope", Value: b})
	// One scatter panel per prefetcher, as in the paper's figure.
	for i, p := range pfs {
		sp := &scatter{title: p.Name + " (o = app, * = weighted average)", xlab: "scope", ylab: "eff. accuracy", yLo: -0.2}
		for _, r := range runs {
			pr := r.pair(p.Name)
			sp.add(pr.Scope(), pr.EffAccuracyL1(), 'o')
		}
		sp.add(sums[i].scope, sums[i].acc, '*')
		sp.render(w)
	}
	return nil
}

func fig12(w *Sink, o Options) error {
	pfs := append(evaluatedSet(), pickNamed("t2", "t2+p1")...)
	runs := runMatrix(workloads.SPEC(), pfs, o, true)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "prefetcher\tscope\taccL1\tcovL1\taccL2\tcovL2")
	order := []string{"ghb-pc/dc", "fdp", "vldp", "spp", "bop", "ampm", "sms", "t2", "t2+p1", "tpc"}
	for _, name := range order {
		var scopes, a1, c1, a2, c2, wgt []float64
		for _, r := range runs {
			pr := r.pair(name)
			scopes = append(scopes, pr.Scope())
			a1 = append(a1, pr.EffAccuracyL1())
			c1 = append(c1, pr.CoverageL1())
			a2 = append(a2, pr.EffAccuracyL2())
			c2 = append(c2, pr.CoverageL2())
			wgt = append(wgt, float64(r.Base.L1Misses))
		}
		vals := []struct {
			metric string
			v      float64
		}{
			{"scope_wmean", stats.WeightedMean(scopes, wgt)},
			{"eff_accuracy_l1_wmean", stats.WeightedMean(a1, wgt)},
			{"coverage_l1_wmean", stats.WeightedMean(c1, wgt)},
			{"eff_accuracy_l2_wmean", stats.WeightedMean(a2, wgt)},
			{"coverage_l2_wmean", stats.WeightedMean(c2, wgt)},
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", name,
			pct(vals[0].v), pct(vals[1].v), pct(vals[2].v), pct(vals[3].v), pct(vals[4].v))
		for _, m := range vals {
			w.Aggregate(obs.Row{Prefetcher: name, Metric: m.metric, Value: m.v})
		}
	}
	return tw.Flush()
}

func fig13(w *Sink, o Options) error {
	pfs := append(evaluatedSet(), pickNamed("t2", "t2+p1")...)
	runs := runMatrix(workloads.SPEC(), pfs, o, true)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "prefetcher\tcategory\tscope\teff.accuracy\tprefetch share")
	for _, p := range pfs {
		var totPrefetch uint64
		catScope := make([][]float64, workloads.NumCategories)
		catAcc := make([][]float64, workloads.NumCategories)
		catWgt := make([][]float64, workloads.NumCategories)
		catCnt := make([]uint64, workloads.NumCategories)
		for _, r := range runs {
			pr := r.pair(p.Name)
			byCat := pr.ByCategory(r.Classify)
			for c := 0; c < workloads.NumCategories; c++ {
				cs := byCat[c]
				if cs.Prefetches == 0 && cs.Scope == 0 {
					continue
				}
				catScope[c] = append(catScope[c], cs.Scope)
				catAcc[c] = append(catAcc[c], cs.EffAccuracy)
				catWgt[c] = append(catWgt[c], float64(cs.Prefetches)+1)
				catCnt[c] += cs.Prefetches
				totPrefetch += cs.Prefetches
			}
		}
		for c := 0; c < workloads.NumCategories; c++ {
			share := 0.0
			if totPrefetch > 0 {
				share = float64(catCnt[c]) / float64(totPrefetch)
			}
			cs := stats.WeightedMean(catScope[c], catWgt[c])
			ca := stats.WeightedMean(catAcc[c], catWgt[c])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", p.Name, workloads.Category(c),
				pct(cs), pct(ca), pct(share))
			cat := workloads.Category(c).String()
			w.Row(obs.Row{Prefetcher: p.Name, Variant: cat, Metric: "scope_wmean", Value: cs})
			w.Row(obs.Row{Prefetcher: p.Name, Variant: cat, Metric: "eff_accuracy_wmean", Value: ca})
			w.Row(obs.Row{Prefetcher: p.Name, Variant: cat, Metric: "prefetch_share", Value: share})
		}
	}
	return tw.Flush()
}
