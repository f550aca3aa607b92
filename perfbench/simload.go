package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/sim"
	"divlab/internal/workloads"
)

// sim-1core: twelve apps spanning L2-resident to GUPS, each under the
// no-prefetch baseline and the paper's eight evaluated prefetchers.
var sim1Apps = []string{
	"stream.pure", "stream.wide", "chase.rand", "aop.rand", "region.hot", "gather.rand",
	"gups.large", "transpose.col", "resident.l2", "mix.phases", "bfs.google", "cg",
}

// sim-4core: mixes drawn from the seed, each under the baseline and three
// prefetchers under both prefetch-drop policies.
var sim4Prefetchers = []string{"tpc", "bop", "spp"}

var sim4Drops = []struct {
	name   string
	policy dram.DropPolicy
}{{"drop-random", dram.DropRandomPrefetch}, {"drop-lowprio", dram.DropLowPriorityPrefetch}}

const (
	// sim1Insts is the instruction budget of every sim-1core simulation.
	sim1Insts = 150_000
	// sim4Insts is the per-core budget of every sim-4core simulation, the
	// one the experiments' 4-core mixes run at quick options
	// (exp.QuickOptions().Insts). Four cores of it can touch up to about
	// 20 MB of lines, more than the 8 MB shared L3 holds.
	sim4Insts = 80_000
	// sim4Copies is how many times each app appears across the sim-4core
	// mixes: 2 copies of 34 apps make 17 mixes and 119 cases, enough for
	// sim_ms_p90.
	sim4Copies = 2
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
	// minRounds is the fewest rounds a run makes, so every reported time
	// is a median of at least three passes.
	minRounds = 3
	// sim4MinRounds is sim-4core's: its passes take seconds, about as long
	// as the host's slow and fast spells, so a median of three moved a run
	// by over 25% from run to run.
	sim4MinRounds = 5
)

// simCase is one simulation of a sim-* workload: one (app, prefetcher)
// point on one core, or one (mix, prefetcher, drop policy) point on four.
type simCase struct {
	key  string
	col  sim.Named
	cfg  sim.Config
	app  workloads.Workload // single-core cases
	mix  workloads.Mix      // four-core cases
	recs []*sim.Recorded    // the per-core streams recorded in set-up
	// spec is the prefetcher spec the case runs ("none" for the baseline).
	spec string
}

func (c *simCase) cores() int { return len(c.recs) }

// instances returns fresh replay cursors over the recorded streams.
func (c *simCase) instances() []workloads.Instance {
	out := make([]workloads.Instance, len(c.recs))
	for i, r := range c.recs {
		out[i] = r.Instance()
	}
	return out
}

// run simulates the case through sim's public entry points. With live set
// the workload is generated as it runs (nil instances), as a single
// `tpcsim -workload` run does; otherwise the recorded streams replay, as in
// the experiment engine. insts overrides the replay instances when non-nil.
func (c *simCase) run(live bool, f sim.Factory, insts []workloads.Instance) []*sim.Result {
	if !live && insts == nil {
		insts = c.instances()
	}
	if c.cores() == 1 {
		var in workloads.Instance
		if !live {
			in = insts[0]
		}
		return []*sim.Result{sim.RunSingleOn(in, c.app, f, c.cfg)}
	}
	if live {
		insts = nil
	}
	return sim.RunMultiOn(insts, c.mix, f, c.cfg)
}

// digest is the SHA-256 of a case's sim.Result JSON encoding: the single
// result for one core, the result slice for a mix.
func digest(rs []*sim.Result) (string, error) {
	var v any = rs
	if len(rs) == 1 {
		v = rs[0]
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// buildSim1 records the sim-1core streams and lays out its 108 cases.
func buildSim1(seed uint64) ([]*simCase, error) {
	cols := append([]sim.Named{sim.Baseline()}, sim.AllEvaluated()...)
	specs := append([]string{"none"}, prefetchSpecs...)
	if len(cols) != len(specs) {
		return nil, fmt.Errorf("sim-1core: %d evaluated prefetchers, want %d", len(cols)-1, len(prefetchSpecs))
	}
	for i, s := range specs[1:] {
		if n := sim.MustByName(s).Name; n != cols[i+1].Name {
			return nil, fmt.Errorf("sim-1core: evaluated prefetcher %d is %q, want %q", i, cols[i+1].Name, n)
		}
	}
	cfg := sim.DefaultConfig(sim1Insts)
	cfg.Seed = seed
	var out []*simCase
	for _, name := range sim1Apps {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("sim-1core: unknown app %q", name)
		}
		rec := sim.Record(w, seed, sim1Insts)
		for i, col := range cols {
			out = append(out, &simCase{
				key: name + "/" + specs[i], col: col, cfg: cfg, app: w,
				recs: []*sim.Recorded{rec}, spec: specs[i],
			})
		}
	}
	return out, nil
}

// drawMixes groups sim4Copies copies of every app into 4-app mixes in an
// order shuffled by the seed. Each seed draws different mixes, but always
// from the same apps: a uniform draw (workloads.Mixes) lets the seed decide
// how many heavy apps run, which moved a pass's cost by over 20% from seed
// to seed.
func drawMixes(seed uint64) []workloads.Mix {
	var slots []workloads.Workload
	for i := 0; i < sim4Copies; i++ {
		slots = append(slots, workloads.All()...)
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var out []workloads.Mix
	for i := 0; i+4 <= len(slots); i += 4 {
		m := workloads.Mix{Name: "mix"}
		for j := range m.Apps {
			m.Apps[j] = slots[i+j]
			m.Name += "." + slots[i+j].Name
		}
		out = append(out, m)
	}
	return out
}

// buildSim4 draws the seed's mixes, records every core's stream and lays
// out seven cases per mix.
func buildSim4(seed uint64) ([]*simCase, error) {
	var out []*simCase
	for m, mix := range drawMixes(seed) {
		base := sim.Config{Insts: sim4Insts, Cores: 4, Seed: seed, CoreParams: cpu.DefaultParams()}
		recs := make([]*sim.Recorded, 4)
		for i := range recs {
			recs[i] = sim.Record(mix.Apps[i], sim.MixSeed(base, i), sim4Insts)
		}
		key := fmt.Sprintf("mix%d:%s", m, mix.Name)
		out = append(out, &simCase{key: key + "/none", col: sim.Baseline(), cfg: base, mix: mix, recs: recs, spec: "none"})
		for _, p := range sim4Prefetchers {
			for _, d := range sim4Drops {
				cfg := base
				cfg.DropPolicy = d.policy
				out = append(out, &simCase{
					key: key + "/" + p + "/" + d.name, col: sim.MustByName(p), cfg: cfg,
					mix: mix, recs: recs, spec: p,
				})
			}
		}
	}
	return out, nil
}

// passResult is one timed pass over a workload's cases.
type passResult struct {
	wall    time.Duration
	simMs   []float64
	results [][]*sim.Result // nil where the simulation panicked
	insts   uint64
}

// runPass simulates every case once, timing each call. Nothing else runs in
// the timed window: digests are taken afterwards.
func runPass(cases []*simCase, live bool) passResult {
	p := passResult{simMs: make([]float64, len(cases)), results: make([][]*sim.Result, len(cases))}
	start := time.Now()
	for i, c := range cases {
		t0 := time.Now()
		p.results[i] = safeRun(func() []*sim.Result { return c.run(live, c.col.Factory, nil) })
		p.simMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	p.wall = time.Since(start)
	for _, rs := range p.results {
		for _, r := range rs {
			p.insts += r.Core.Insts
		}
	}
	return p
}

// safeRun calls f, turning a panic into a nil result (a failed operation).
func safeRun(f func() []*sim.Result) (rs []*sim.Result) {
	defer func() {
		if recover() != nil {
			rs = nil
		}
	}()
	return f()
}

// digestChecker checks every simulation's digest: against the committed
// value on the default seed, and on every seed against the first digest
// the run saw for the same case (live generation against replay, pass
// against pass).
type digestChecker struct {
	committed map[string]string // nil off the default seed
	seen      map[string]string
	mismatch  []string
}

func newDigestChecker(committed map[string]string) *digestChecker {
	return &digestChecker{committed: committed, seen: map[string]string{}}
}

// check returns the number of failed simulations in a pass.
func (d *digestChecker) check(cases []*simCase, p passResult) int {
	failed := 0
	for i, c := range cases {
		if p.results[i] == nil {
			failed++
			d.mismatch = append(d.mismatch, c.key+": panicked")
			continue
		}
		h, err := digest(p.results[i])
		if err != nil {
			failed++
			d.mismatch = append(d.mismatch, c.key+": "+err.Error())
			continue
		}
		if want, ok := d.committed[c.key]; d.committed != nil && (!ok || want != h) {
			failed++
			d.mismatch = append(d.mismatch, c.key+": digest differs from the committed value")
			continue
		}
		if prev, ok := d.seen[c.key]; ok && prev != h {
			failed++
			d.mismatch = append(d.mismatch, c.key+": digest differs between passes")
			continue
		}
		d.seen[c.key] = h
	}
	return failed
}

// simOutcome is what a timed sim-* run reports.
type simOutcome struct {
	setupS   float64
	coldS    []float64
	warmS    []float64
	coldPeak []float64
	warmPeak []float64
	// caseMs holds each case's warm-pass times.
	caseMs [][]float64
	// passInsts is the instructions one pass retires.
	passInsts uint64
	attempted int
	failed    int
	mismatch  []string
}

// runSimWorkload times a sim-* workload: set-up repeated setupRepeats
// times, then rounds of one live-generation (cold) pass and one replay
// (warm) pass until the time is up and at least rounds rounds ran.
func runSimWorkload(build func(uint64) ([]*simCase, error), rounds int, seed uint64, seconds float64, committed map[string]string) (*simOutcome, error) {
	o := &simOutcome{}
	var cases []*simCase
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		cases = nil
		settle()
		t0 := time.Now()
		var err error
		if cases, err = build(seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setupS = median(setups)

	dc := newDigestChecker(committed)
	o.caseMs = make([][]float64, len(cases))
	start := time.Now()
	for round := 0; round < rounds || time.Since(start).Seconds() < seconds; round++ {
		for _, live := range []bool{true, false} {
			settle()
			pk, err := startPeakRSS()
			if err != nil {
				return nil, err
			}
			p := runPass(cases, live)
			peak := pk.Stop()
			o.attempted += len(cases)
			o.failed += dc.check(cases, p)
			if live {
				o.coldS = append(o.coldS, p.wall.Seconds())
				o.coldPeak = append(o.coldPeak, peak)
				continue
			}
			o.warmS = append(o.warmS, p.wall.Seconds())
			o.warmPeak = append(o.warmPeak, peak)
			for i, ms := range p.simMs {
				o.caseMs[i] = append(o.caseMs[i], ms)
			}
			o.passInsts = p.insts
		}
	}
	o.mismatch = dc.mismatch
	return o, nil
}

// caseMedians returns each simulation's median time over the run's passes:
// the samples sim_ms percentiles are taken over, one per simulation, with
// the host's pass-to-pass noise taken out.
func caseMedians(perCase [][]float64) []float64 {
	out := make([]float64, len(perCase))
	for i, xs := range perCase {
		out[i] = median(xs)
	}
	return out
}

// metrics renders a sim-* outcome as the end-to-end metric set.
func (o *simOutcome) metrics() (map[string]float64, error) {
	ms := caseMedians(o.caseMs)
	p50, _ := percentile(ms, 50)
	p90, ok := percentile(ms, 90)
	if !ok {
		return nil, fmt.Errorf("sim_ms_p90 refused: %d samples", len(ms))
	}
	return map[string]float64{
		"setup_s":      o.setupS,
		"insts_per_s":  ratio(float64(o.passInsts), median(o.warmS)),
		"sim_ms_p50":   p50,
		"sim_ms_p90":   p90,
		"cold_s":       median(o.coldS),
		"warm_s":       median(o.warmS),
		"cold_peak_mb": median(o.coldPeak),
		"warm_peak_mb": median(o.warmPeak),
	}, nil
}
