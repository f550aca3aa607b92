// Quickstart: run one workload under the no-prefetch baseline and the TPC
// composite prefetcher, and print the headline numbers — the smallest
// end-to-end use of the public simulation API.
package main

import (
	"fmt"
	"log"

	"divlab/internal/sim"
	"divlab/internal/workloads"
)

func main() {
	w, ok := workloads.ByName("stream.pure")
	if !ok {
		log.Fatal("workload not found")
	}
	cfg := sim.DefaultConfig(200_000)

	base := sim.RunSingle(w, nil, cfg)
	fmt.Printf("baseline:  IPC=%.3f  L1 MPKI=%.1f  traffic=%d lines\n",
		base.IPC(), base.MPKI(), base.Traffic)

	tpc := sim.MustByName("tpc")
	r := sim.RunSingle(w, tpc.Factory, cfg)
	fmt.Printf("tpc:       IPC=%.3f  L1 MPKI=%.1f  traffic=%d lines\n",
		r.IPC(), r.MPKI(), r.Traffic)
	fmt.Printf("speedup:   %.2fx   prefetches issued: %d\n",
		r.IPC()/base.IPC(), r.Issued)
}
