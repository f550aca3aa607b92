// Multicore: runs a 4-application mix on four cores sharing the L3 and the
// memory controller, comparing the controller's random prefetch dropping
// against priority-aware dropping that sheds C1's low-confidence region
// prefetches first (the Sec. V-C1 experiment, one mix at a time).
package main

import (
	"fmt"

	"divlab/internal/dram"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

func main() {
	mix := workloads.Mixes(1, 42)[0]
	fmt.Println("mix:", mix.Name)

	cfg := sim.DefaultConfig(150_000)
	cfg.Cores = 4
	tpc := sim.MustByName("tpc")

	cfg.DropPolicy = dram.DropRandomPrefetch
	base := sim.RunMulti(mix, nil, cfg)
	rnd := sim.RunMulti(mix, tpc.Factory, cfg)
	cfg.DropPolicy = dram.DropLowPriorityPrefetch
	pri := sim.RunMulti(mix, tpc.Factory, cfg)

	ws := func(rs []*sim.Result) float64 {
		s := 0.0
		for i := range rs {
			if b := base[i].IPC(); b > 0 {
				s += rs[i].IPC() / b
			}
		}
		return s / float64(len(rs))
	}
	for i := range base {
		fmt.Printf("core %d (%s): base IPC=%.3f  tpc IPC=%.3f\n",
			i, mix.Apps[i].Name, base[i].IPC(), rnd[i].IPC())
	}
	wr, wp := ws(rnd), ws(pri)
	fmt.Printf("weighted speedup, random drop:        %.3f\n", wr)
	fmt.Printf("weighted speedup, low-priority drop:  %.3f (%+.1f%%)\n", wp, 100*(wp/wr-1))
}
