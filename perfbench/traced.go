package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"divlab/internal/cache"
	"divlab/internal/dram"
	"divlab/internal/exp"
	"divlab/internal/runner"
	"divlab/internal/sim"
)

// The traced run (--trace 1) gives the per-layer metrics. It is the same
// for every --workload value: every traced run reports every per-layer
// metric, and no one workload reaches every layer (sim-* has no engine or
// store, exp-store no seam into the core, hierarchy or prefetchers), so it
// traces the layers of all three workloads on the inputs and seed the timed
// runs use, and each per-layer metric has one definition. It never produces
// end-to-end numbers; it prints the ratio of its traced timings to untraced
// ones taken in the same process instead.

// prefetchSpecs are the evaluated prefetchers in sim.AllEvaluated order.
var prefetchSpecs = []string{"ghb", "fdp", "vldp", "spp", "bop", "ampm", "sms", "tpc"}

// reconcileTol is how far the layers attributed to one simulation (cpu,
// mem, prefetch and workloads) may exceed its untraced wall time, the total
// they are meant to add up to, as a share of it: the glue left over may not
// fall below -tol × untraced.
const reconcileTol = 0.25

// reconcileTolTotal is the same bound for a workload's sums. The replays
// and the untraced runs are timed at different moments on a shared host, so
// glue carries a few percent of noise either way.
const reconcileTolTotal = 0.10

// busyTol bounds exp-store's attributed worker busy time against the
// workers' capacity (workers × pass wall time), as a share of the capacity.
const busyTol = 0.02

// perLayerUnits names every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"workloads.record_ns_per_inst": "ns",
		"workloads.classify_per_inst":  "count",
		"cpu.step_ns_per_inst":         "ns",
		"cpu.stepbatch_ns_per_inst":    "ns",
		"mem.demand_ns":                "ns",
		"mem.prefetch_ns":              "ns",
		"mem.demand_per_inst":          "count",
		"mem.prefetch_per_inst":        "count",
		"cache.l1d_miss_ratio":         "ratio",
		"cache.l2_miss_ratio":          "ratio",
		"cache.l3_miss_ratio":          "ratio",
		"cache.l1d_mshr_full_stalls":   "count",
		"dram.row_hit_ratio":           "ratio",
		"dram.dropped_prefetch_ratio":  "ratio",
		"dram.queue_full_waits":        "count",
		"sim.build_ms_1core":           "ms",
		"sim.build_ms_1core_fp":        "ms",
		"sim.build_ms_4core":           "ms",
		"sim.glue_s":                   "s",
		"sim.codec_decode_ms":          "ms",
		"sim.codec_encode_ms":          "ms",
		"runner.jobs":                  "count",
		"runner.sims":                  "count",
		"runner.memo_hit_ratio":        "ratio",
		"runner.live_heap_mb":          "MB",
		"store.get_ms_p50":             "ms",
		"store.get_ms_p99":             "ms",
		"store.put_ms_p50":             "ms",
		"store.put_ms_p99":             "ms",
		"store.record_kb":              "KB",
		"store.errs":                   "count",
	}
	for _, s := range prefetchSpecs {
		u["prefetch."+s+".ns_per_event"] = "ns"
		u["prefetch."+s+".useful_ratio"] = "ratio"
		u["prefetch."+s+".filtered_ratio"] = "ratio"
	}
	for _, e := range exp.Names() {
		u["exp."+e+".cold_s"] = "s"
		u["exp."+e+".warm_s"] = "s"
	}
	for _, w := range workloadNames {
		u["runtime."+w+".alloc_mb"] = "MB"
		u["runtime."+w+".gc_pause_ms"] = "ms"
	}
	return u
}

// span is one traced interval. Spans of one simulation or one engine job
// share a run id; times are nanoseconds since the traced run began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// add records a span and returns its index, the id children name as parent.
func (t *tracer) add(name string, iv interval, parent, run int) int {
	t.spans = append(t.spans, span{name, iv.start.Sub(t.t0).Nanoseconds(), iv.end.Sub(t.t0).Nanoseconds(), parent, run})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// specLayer accumulates one prefetcher's replay and counts.
type specLayer struct {
	replay                    time.Duration
	events                    int
	useful, issued, attempted uint64
	filtered                  uint64
}

// simLayers is one sim-* workload's traced attribution.
type simLayers struct {
	name        string
	recordTime  time.Duration
	recordInsts uint64
	passU       time.Duration
	msU, msT    []float64
	wallT       time.Duration
	allocMB     float64
	pauseMs     float64

	cpuStep, cpuBatch   time.Duration
	instsStep, instsBat uint64
	memDemand, memPf    time.Duration
	pf, wl, over, glue  time.Duration
	pfLive              time.Duration
	nDemand, nPrefetch  int
	insts               uint64
	classify            int64
	l1, l2, l3          cache.Stats
	fullStalls          uint64
	dram                dram.Stats
	specs               map[string]*specLayer
	reconcileBad        int

	attempted, failed int
	problems          []string
}

func (l *simLayers) fail(key, msg string) {
	l.failed++
	l.problems = append(l.problems, key+": "+msg)
}

// untracedRepeats is how many untraced runs give a simulation's reference
// time, their median. They run right before the simulation is traced and
// replayed, so the host's slow and fast spells fall on both sides of the
// reconciliation alike.
const untracedRepeats = 3

// traceSimWorkload runs one untraced pass (digests, runtime counters), then
// for every case times untraced runs, runs it decorated and replays its
// capture.
func traceSimWorkload(name string, build func(uint64) ([]*simCase, error), seed uint64, committed map[string]string, bias time.Duration, tr *tracer) (*simLayers, error) {
	l := &simLayers{name: name, specs: map[string]*specLayer{}}
	t0 := time.Now()
	cases, err := build(seed)
	if err != nil {
		return nil, err
	}
	l.recordTime = time.Since(t0)
	seen := map[*sim.Recorded]bool{}
	for _, c := range cases {
		for _, r := range c.recs {
			if !seen[r] {
				seen[r] = true
				l.recordInsts += uint64(r.Insts())
			}
		}
	}

	settle()
	rt0 := readRuntime()
	p := runPass(cases, false)
	l.allocMB, l.pauseMs = readRuntime().sub(rt0)
	dc := newDigestChecker(committed)
	l.attempted += len(cases)
	l.failed += dc.check(cases, p)
	l.problems = append(l.problems, dc.mismatch...)

	root := tr.add(name, interval{t0, t0}, -1, -1)
	for i, c := range cases {
		if p.results[i] == nil {
			continue
		}
		l.attempted++
		runtime.GC()
		ms := make([]float64, untracedRepeats)
		for j := range ms {
			s := time.Now()
			c.run(false, c.col.Factory, nil)
			ms[j] = float64(time.Since(s).Nanoseconds()) / 1e6
		}
		wallU := time.Duration(median(ms) * 1e6)
		l.passU += wallU
		l.msU = append(l.msU, median(ms))
		if err := l.traceCase(c, p.results[i], wallU, bias, tr, root, i); err != nil {
			l.fail(c.key, err.Error())
		}
	}
	tr.spans[root].End = time.Since(tr.t0).Nanoseconds()
	return l, nil
}

// traceCase runs one case decorated, checks it against the untraced run,
// replays every layer and attributes its traced wall time.
func (l *simLayers) traceCase(c *simCase, plain []*sim.Result, wallU, bias time.Duration, tr *tracer, root, run int) error {
	capt := &capture{}
	var ferr error
	insts := capt.tracedInstances(c.instances())
	f := capt.tracedFactory(c.col.Factory, &ferr)
	t0 := time.Now()
	rs := safeRun(func() []*sim.Result { return c.run(false, f, insts) })
	t1 := time.Now()
	tr.add("sim "+c.key, interval{t0, t1}, root, run)
	wallT := t1.Sub(t0)
	if ferr != nil {
		return ferr
	}
	if rs == nil {
		return fmt.Errorf("traced run panicked")
	}
	if err := sameRun(c, rs, plain); err != nil {
		return err
	}
	for _, t := range capt.taps {
		if ifacesOf(t.outer) != ifacesOf(t.inner) {
			return fmt.Errorf("decorator changed the component's interfaces")
		}
	}

	// cpu: each core alone over its captured latencies.
	var cpuTime time.Duration
	windowed := ifacesOf(capt.taps[0].inner).InstObserver
	for i, rec := range c.recs {
		s := time.Now()
		res, d, err := replayCPU(rec, c.cfg.Insts, capt.cores[i].lats, windowed)
		tr.add("replay cpu", interval{s, time.Now()}, root, run)
		if err != nil {
			return err
		}
		if res != plain[i].Core {
			return fmt.Errorf("cpu replay core %d: %d cycles, the run had %d", i, res.Cycles, plain[i].Core.Cycles)
		}
		cpuTime += d
		if windowed {
			l.cpuBatch += d
			l.instsBat += res.Insts
		} else {
			l.cpuStep += d
			l.instsStep += res.Insts
		}
		l.insts += res.Insts
	}

	// mem: the demand+prefetch sequence into a fresh hierarchy.
	s := time.Now()
	mr, err := replayMem(c, capt.ops, rs, bias)
	tr.add("replay mem", interval{s, time.Now()}, root, run)
	if err != nil {
		return err
	}
	l.memDemand += mr.demand
	l.memPf += mr.prefetch
	l.nDemand += mr.nDemand
	l.nPrefetch += mr.nPrefetch
	l.l1 = addStats(l.l1, mr.l1)
	l.l2 = addStats(l.l2, mr.l2)
	l.l3 = addStats(l.l3, mr.l3)
	l.fullStalls += mr.fullStalls
	l.dram = addDRAM(l.dram, mr.dram)

	// prefetch: each component alone over its captured events.
	var pfTime time.Duration
	if c.col.Factory != nil {
		sl := l.specs[c.spec]
		if sl == nil {
			sl = &specLayer{}
			l.specs[c.spec] = sl
		}
		for i, rec := range c.recs {
			s := time.Now()
			d, events, issued := replayPrefetch(c.col.Factory, rec.Instance(), capt.cores[i])
			tr.add("replay prefetch "+c.spec, interval{s, time.Now()}, root, run)
			if issued != capt.cores[i].issued {
				return fmt.Errorf("prefetch replay core %d issued %d requests, the run %d", i, issued, capt.cores[i].issued)
			}
			sl.replay += d
			pfTime += d
			sl.events += events
			sl.useful += uint64(capt.cores[i].useful)
			sl.attempted += uint64(capt.cores[i].issued)
			sl.issued += rs[i].Issued
			sl.filtered += rs[i].Filtered
		}
	}

	// Attribution. cpu, mem and prefetch come from the replays: timed live,
	// inside a decorated run whose capture crowds the host caches, a
	// component reads slower than it runs untraced. workloads comes from the
	// decorator's busy time less the calibrated bias of its clock reads. The
	// tracing overhead is traced minus untraced wall time; glue is what no
	// layer accounts for.
	pfBusy, wlBusy, pfCalls, wlCalls, classify := capt.live()
	wl := max(0, wlBusy-time.Duration(wlCalls)*bias)
	over := wallT - wallU
	glue := wallU - (cpuTime + mr.demand + mr.prefetch + pfTime + wl)
	if float64(glue) < -reconcileTol*float64(wallU) {
		l.reconcileBad++
	}
	l.pf += pfTime
	l.pfLive += max(0, pfBusy-time.Duration(pfCalls)*bias)
	l.wl += wl
	l.over += over
	l.glue += glue
	l.wallT += wallT
	l.classify += classify
	l.msT = append(l.msT, float64(wallT.Nanoseconds())/1e6)
	return nil
}

// sameRun checks a traced run against the untraced one: equal digests for
// decorated components; for the no-prefetch baseline, which was captured
// through a no-op component and so names one, equal cycles and cache and
// DRAM counters.
func sameRun(c *simCase, traced, plain []*sim.Result) error {
	if c.col.Factory != nil {
		a, err1 := digest(traced)
		b, err2 := digest(plain)
		if err1 != nil || err2 != nil || a != b {
			return fmt.Errorf("traced digest differs from untraced")
		}
		return nil
	}
	for i := range plain {
		t, p := traced[i], plain[i]
		if t.Core != p.Core || t.L1Stats != p.L1Stats || t.L2Stats != p.L2Stats || t.DRAM != p.DRAM ||
			t.L1Misses != p.L1Misses || t.L2Misses != p.L2Misses || t.Traffic != p.Traffic {
			return fmt.Errorf("baseline captured through a no-op component differs from the plain baseline")
		}
	}
	return nil
}

func addDRAM(a, b dram.Stats) dram.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.PrefetchReads += b.PrefetchReads
	a.RowHits += b.RowHits
	a.RowMisses += b.RowMisses
	a.RowConflicts += b.RowConflicts
	a.DroppedPrefetches += b.DroppedPrefetches
	a.QueueFullWaits += b.QueueFullWaits
	return a
}

// storeLayers is exp-store's traced attribution.
type storeLayers struct {
	coldU, warmU       time.Duration
	simMsU, simMsT     []float64
	allocMB, pauseMs   float64
	cold, warm         passTrace
	expCold, expWarm   map[string]float64
	jobs, sims, hits   uint64
	liveHeap           float64
	decodeMs, encodeMs float64
	records            int
	payloadKB          float64
	errs               uint64

	attempted, failed int
	problems          []string
}

// passTrace is one traced engine pass and the store calls made in it.
type passTrace struct {
	iv         interval
	gets, puts []interval
	sims       []interval
	blobs      [][]byte
	sizes      []int
}

// addSpans records the pass's store calls and simulated jobs as children
// of its span; run ids number the calls of each kind.
func (p passTrace) addSpans(tr *tracer, pass int) {
	for _, set := range []struct {
		name string
		ivs  []interval
	}{{"store.Get", p.gets}, {"sim job", p.sims}, {"store.Put", p.puts}} {
		for i, iv := range set.ivs {
			tr.add(set.name, iv, pass, i)
		}
	}
}

// take moves the calls recorded so far out of the tap.
func (s *storeTap) take() passTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := passTrace{gets: s.gets, puts: s.puts, sims: s.sims, blobs: s.blobs, sizes: s.sizes}
	s.gets, s.puts, s.sims, s.blobs, s.sizes, s.keys = nil, nil, nil, nil, nil, nil
	return p
}

// runExperiments runs every registered experiment through exp.Run on one
// engine, one span each, framing the output exactly as exp.RunAll does.
func runExperiments(seed uint64, e *runner.Engine, tr *tracer, name string) ([]byte, map[string]float64, interval, int, error) {
	var buf bytes.Buffer
	sink := exp.TextSink(&buf)
	o := expOptions(seed, e)
	secs := map[string]float64{}
	settle()
	start := time.Now()
	pass := tr.add(name, interval{start, start}, -1, -1)
	for _, n := range exp.Names() {
		fmt.Fprintf(&buf, "==== %s: %s ====\n", n, exp.Describe(n))
		t0 := time.Now()
		err := exp.Run(n, sink, o)
		t1 := time.Now()
		if err != nil {
			return nil, nil, interval{}, 0, fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintln(&buf)
		secs[n] = t1.Sub(t0).Seconds()
		tr.add("exp.Run "+n, interval{t0, t1}, pass, -1)
	}
	iv := interval{start, time.Now()}
	tr.spans[pass].End = iv.end.Sub(tr.t0).Nanoseconds()
	return buf.Bytes(), secs, iv, pass, nil
}

// traceStore runs exp-store untraced once for reference, then traced with
// one exp.Run span per experiment and every store call recorded.
func traceStore(workDir string, seed uint64, golden []byte, tr *tracer) (*storeLayers, error) {
	l := &storeLayers{}
	dir := filepath.Join(workDir, "exp-store-traced")
	defer os.RemoveAll(dir)

	es, err := setupExpStore(dir, false)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	coldOut, coldU, _, err := timedRunAll(seed, es.cold)
	if err != nil {
		return nil, err
	}
	coldStats := es.cold.StoreStats()
	l.attempted += int(es.cold.Jobs())
	es.cold = nil
	for _, iv := range es.tap.sims {
		l.simMsU = append(l.simMsU, float64(iv.end.Sub(iv.start).Nanoseconds())/1e6)
	}
	warmOut, warmU, _, err := timedRunAll(seed, es.warm[0])
	if err != nil {
		return nil, err
	}
	l.allocMB, l.pauseMs = readRuntime().sub(rt0)
	l.coldU, l.warmU = coldU, warmU
	l.attempted += int(es.warm[0].Jobs())
	bad := checkWarm(coldStats, es.warm[0])
	if golden != nil && !bytes.Equal(coldOut, golden) {
		bad = append(bad, "cold report differs from "+goldenPath)
	}
	if !bytes.Equal(warmOut, coldOut) {
		bad = append(bad, "warm report differs from cold")
	}
	l.errs += coldStats.Errs + es.warm[0].StoreStats().Errs
	es = nil

	ts, err := setupExpStore(dir, true)
	if err != nil {
		return nil, err
	}
	out, secs, iv, pass, err := runExperiments(seed, ts.cold, tr, "exp-store cold")
	if err != nil {
		return nil, err
	}
	l.cold = ts.tap.take()
	l.cold.iv = iv
	l.cold.addSpans(tr, pass)
	l.expCold = secs
	l.jobs, l.sims = ts.cold.Jobs(), ts.cold.Sims()
	l.hits, _ = ts.cold.Stats()
	l.liveHeap = liveHeapMB()
	tColdStats := ts.cold.StoreStats()
	l.attempted += int(l.jobs)
	ts.cold = nil
	if !bytes.Equal(out, coldOut) {
		bad = append(bad, "traced cold report differs from untraced")
	}

	warm := ts.warm[0]
	ts.warm = nil
	out, secs, iv, pass, err = runExperiments(seed, warm, tr, "exp-store warm")
	if err != nil {
		return nil, err
	}
	l.warm = ts.tap.take()
	l.warm.iv = iv
	l.warm.addSpans(tr, pass)
	l.expWarm = secs
	l.liveHeap = max(l.liveHeap, liveHeapMB())
	l.attempted += int(warm.Jobs())
	bad = append(bad, checkWarm(tColdStats, warm)...)
	l.errs += tColdStats.Errs + warm.StoreStats().Errs
	if !bytes.Equal(out, coldOut) {
		bad = append(bad, "traced warm report differs from untraced")
	}
	for _, p := range []passTrace{l.cold, l.warm} {
		if busy := workerBusy(p); busy > time.Duration(float64(engineWorkers*p.iv.end.Sub(p.iv.start))*(1+busyTol)) {
			bad = append(bad, fmt.Sprintf("worker busy time %v exceeds %d workers × %v", busy, engineWorkers, p.iv.end.Sub(p.iv.start)))
		}
	}
	for _, iv := range l.cold.sims {
		l.simMsT = append(l.simMsT, float64(iv.end.Sub(iv.start).Nanoseconds())/1e6)
	}

	// The codec: every stored payload decoded and re-encoded alone.
	var dec, enc time.Duration
	for _, b := range l.warm.blobs {
		var rs []*sim.Result
		t0 := time.Now()
		err := json.Unmarshal(b, &rs)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
		again, err := json.Marshal(rs)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
		if !bytes.Equal(again, b) {
			bad = append(bad, "a stored payload does not re-encode byte for byte")
		}
		dec += t1.Sub(t0)
		enc += t2.Sub(t1)
	}
	l.records = len(l.warm.blobs)
	l.decodeMs = ratio(float64(dec.Nanoseconds())/1e6, float64(l.records))
	l.encodeMs = ratio(float64(enc.Nanoseconds())/1e6, float64(l.records))
	total := 0
	for _, n := range l.cold.sizes {
		total += n
	}
	l.payloadKB = ratio(float64(total)/1e3, float64(len(l.cold.sizes)))
	if len(bad) > 0 {
		l.failed++
		l.problems = append(l.problems, bad...)
	}
	return l, nil
}

// workerBusy is the engine workers' attributed busy time in one pass: store
// gets, simulations and store puts, which one worker runs back to back.
func workerBusy(p passTrace) time.Duration {
	var d time.Duration
	for _, set := range [][]interval{p.gets, p.sims, p.puts} {
		for _, iv := range set {
			d += iv.end.Sub(iv.start)
		}
	}
	return d
}

func sumIv(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.end.Sub(iv.start)
	}
	return d
}

// msOf returns the durations of ivs in milliseconds.
func msOf(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = float64(iv.end.Sub(iv.start).Nanoseconds()) / 1e6
	}
	return out
}

// buildMs returns the median wall time, in ms, of n calls of f.
func buildMs(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(xs)
}

// simBuildMs measures system construction alone: zero-instruction runs of
// the first tpc case of each sim-* workload.
func simBuildMs(seed uint64) (one, oneFP, four float64, err error) {
	c1, err := firstCase(buildSim1, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	c4, err := firstCase(buildSim4, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := c1.cfg
	cfg.Insts = 0
	one = buildMs(50, func() { sim.RunSingleOn(c1.recs[0].Instance(), c1.app, c1.col.Factory, cfg) })
	cfg.CollectFootprint = true
	oneFP = buildMs(50, func() { sim.RunSingleOn(c1.recs[0].Instance(), c1.app, c1.col.Factory, cfg) })
	cfg4 := c4.cfg
	cfg4.Insts = 0
	four = buildMs(50, func() { sim.RunMultiOn(c4.instances(), c4.mix, c4.col.Factory, cfg4) })
	return one, oneFP, four, nil
}

func firstCase(build func(uint64) ([]*simCase, error), seed uint64) (*simCase, error) {
	cases, err := build(seed)
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		if c.spec == "tpc" {
			return c, nil
		}
	}
	return nil, fmt.Errorf("no tpc case")
}

// runTraced runs the traced analysis and reports the per-layer metrics.
func runTraced(w io.Writer, workDir string, seed uint64, committed map[string]map[string]string, golden []byte) (result, error) {
	tr := &tracer{t0: time.Now()}
	bias := timerBias()
	m := map[string]float64{}
	attempted, failed := 0, 0
	var problems []string

	var sims []*simLayers
	for _, wl := range []struct {
		name  string
		build func(uint64) ([]*simCase, error)
	}{{"sim-1core", buildSim1}, {"sim-4core", buildSim4}} {
		l, err := traceSimWorkload(wl.name, wl.build, seed, committed[wl.name], bias, tr)
		if err != nil {
			return result{}, err
		}
		sims = append(sims, l)
		attempted += l.attempted
		failed += l.failed
		problems = append(problems, l.problems...)
		m["runtime."+wl.name+".alloc_mb"] = l.allocMB
		m["runtime."+wl.name+".gc_pause_ms"] = l.pauseMs
	}
	sl, err := traceStore(workDir, seed, golden, tr)
	if err != nil {
		return result{}, err
	}
	attempted += sl.attempted
	failed += sl.failed
	problems = append(problems, sl.problems...)
	m["runtime.exp-store.alloc_mb"] = sl.allocMB
	m["runtime.exp-store.gc_pause_ms"] = sl.pauseMs

	one, oneFP, four, err := simBuildMs(seed)
	if err != nil {
		return result{}, err
	}
	m["sim.build_ms_1core"], m["sim.build_ms_1core_fp"], m["sim.build_ms_4core"] = one, oneFP, four
	simMetrics(m, sims)
	storeMetrics(m, sl)

	// Reconciliation over each workload's sums, against the untraced time.
	for _, l := range sims {
		attempted++
		untraced := l.wallT - l.over
		fmt.Fprintf(w, "%s: layers reconcile to %.1f%% of the untraced time (glue %+.1f%%; tolerance: layers may exceed it by %.0f%%)\n",
			l.name, 100*ratio(float64(untraced-l.glue), float64(untraced)), 100*ratio(float64(l.glue), float64(untraced)), 100*reconcileTolTotal)
		if float64(l.glue) < -reconcileTolTotal*float64(untraced) {
			failed++
			problems = append(problems, fmt.Sprintf("%s: layers exceed untraced wall time by %.1f%%", l.name, -100*float64(l.glue)/float64(untraced)))
		}
		if l.reconcileBad > 0 {
			fmt.Fprintf(w, "%s: %d of %d simulations' layers exceed their untraced wall time by more than %.0f%%\n",
				l.name, l.reconcileBad, len(l.msT), 100*reconcileTol)
		}
	}

	printOverhead(w, sims, sl)
	for _, l := range sims {
		printSimTable(w, l)
	}
	printStoreTable(w, sl)
	for _, p := range problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	units := perLayerUnits()
	printMetrics(w, m, units)
	if err := tr.write(filepath.Join(workDir, "spans.jsonl")); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(tr.spans), filepath.Join(workDir, "spans.jsonl"))
	return newResult(attempted, failed, m, units)
}

// simMetrics derives the cpu, mem, cache, dram, prefetch, workloads and
// sim-glue metrics. cpu, prefetch and classify counts come from sim-1core,
// the only workload running every prefetcher on both step loops; mem, cache
// and dram counts and sim glue sum both sim-* workloads.
func simMetrics(m map[string]float64, sims []*simLayers) {
	one := sims[0]
	var recT time.Duration
	var recN uint64
	var memD, memP, glue time.Duration
	var nD, nP int
	var insts uint64
	var l1, l2, l3 cache.Stats
	var stalls uint64
	var d dram.Stats
	for _, l := range sims {
		recT += l.recordTime
		recN += l.recordInsts
		memD += l.memDemand
		memP += l.memPf
		nD += l.nDemand
		nP += l.nPrefetch
		insts += l.insts
		glue += l.glue
		l1, l2, l3 = addStats(l1, l.l1), addStats(l2, l.l2), addStats(l3, l.l3)
		stalls += l.fullStalls
		d = addDRAM(d, l.dram)
	}
	m["workloads.record_ns_per_inst"] = ratio(float64(recT.Nanoseconds()), float64(recN))
	m["workloads.classify_per_inst"] = ratio(float64(one.classify), float64(one.insts))
	m["cpu.step_ns_per_inst"] = ratio(float64(one.cpuStep.Nanoseconds()), float64(one.instsStep))
	m["cpu.stepbatch_ns_per_inst"] = ratio(float64(one.cpuBatch.Nanoseconds()), float64(one.instsBat))
	m["mem.demand_ns"] = ratio(float64(memD.Nanoseconds()), float64(nD))
	m["mem.prefetch_ns"] = ratio(float64(memP.Nanoseconds()), float64(nP))
	m["mem.demand_per_inst"] = ratio(float64(nD), float64(insts))
	m["mem.prefetch_per_inst"] = ratio(float64(nP), float64(insts))
	m["cache.l1d_miss_ratio"] = ratio(float64(l1.Misses), float64(l1.Accesses))
	m["cache.l2_miss_ratio"] = ratio(float64(l2.Misses), float64(l2.Accesses))
	m["cache.l3_miss_ratio"] = ratio(float64(l3.Misses), float64(l3.Accesses))
	m["cache.l1d_mshr_full_stalls"] = float64(stalls)
	m["dram.row_hit_ratio"] = ratio(float64(d.RowHits), float64(d.RowHits+d.RowMisses+d.RowConflicts))
	m["dram.dropped_prefetch_ratio"] = ratio(float64(d.DroppedPrefetches), float64(d.PrefetchReads+d.DroppedPrefetches))
	m["dram.queue_full_waits"] = float64(d.QueueFullWaits)
	m["sim.glue_s"] = glue.Seconds()
	for _, s := range prefetchSpecs {
		sp := one.specs[s]
		if sp == nil {
			sp = &specLayer{}
		}
		m["prefetch."+s+".ns_per_event"] = ratio(float64(sp.replay.Nanoseconds()), float64(sp.events))
		m["prefetch."+s+".useful_ratio"] = usefulRatio(sp)
		m["prefetch."+s+".filtered_ratio"] = filteredRatio(sp)
	}
}

// usefulRatio is first demand hits on prefetched lines over prefetches
// issued (those that caused a fetch).
func usefulRatio(s *specLayer) float64 { return ratio(float64(s.useful), float64(s.issued)) }

// filteredRatio is requests the hierarchy deduplicated over requests the
// component attempted.
func filteredRatio(s *specLayer) float64 { return ratio(float64(s.filtered), float64(s.attempted)) }

// memoHitRatio is in-process run-cache hits over engine jobs.
func memoHitRatio(hits, jobs uint64) float64 { return ratio(float64(hits), float64(jobs)) }

func storeMetrics(m map[string]float64, l *storeLayers) {
	m["sim.codec_decode_ms"] = l.decodeMs
	m["sim.codec_encode_ms"] = l.encodeMs
	m["runner.jobs"] = float64(l.jobs)
	m["runner.sims"] = float64(l.sims)
	m["runner.memo_hit_ratio"] = memoHitRatio(l.hits, l.jobs)
	m["runner.live_heap_mb"] = l.liveHeap
	gets, puts := msOf(l.warm.gets), msOf(l.cold.puts)
	m["store.get_ms_p50"], _ = percentile(gets, 50)
	m["store.get_ms_p99"], _ = percentile(gets, 99)
	m["store.put_ms_p50"], _ = percentile(puts, 50)
	m["store.put_ms_p99"], _ = percentile(puts, 99)
	m["store.record_kb"] = l.payloadKB
	m["store.errs"] = float64(l.errs)
	for e, s := range l.expCold {
		m["exp."+e+".cold_s"] = s
	}
	for e, s := range l.expWarm {
		m["exp."+e+".warm_s"] = s
	}
}

// printOverhead prints traced ÷ untraced for every end-to-end timing the
// traced run measures both ways.
func printOverhead(w io.Writer, sims []*simLayers, sl *storeLayers) {
	fmt.Fprintln(w, "tracing overhead (traced ÷ untraced, same process and inputs):")
	row := func(wl, metric string, traced, plain float64) {
		fmt.Fprintf(w, "  %-10s %-13s %6.2f\n", wl, metric, ratio(traced, plain))
	}
	pct := func(wl string, traced, plain []float64) {
		for _, p := range []float64{50, 90} {
			name := fmt.Sprintf("sim_ms_p%.0f", p)
			t, ok1 := percentile(traced, p)
			u, ok2 := percentile(plain, p)
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "  %-10s %-13s  refused: %d samples in one pass\n", wl, name, len(plain))
				continue
			}
			row(wl, name, t, u)
		}
	}
	for _, l := range sims {
		row(l.name, "warm_s", l.wallT.Seconds(), l.passU.Seconds())
		row(l.name, "insts_per_s", 1/l.wallT.Seconds(), 1/l.passU.Seconds())
		pct(l.name, l.msT, l.msU)
		fmt.Fprintf(w, "  %-10s %-13s  not traced (set-up and live-generation passes run no decorated value)\n", l.name, "setup_s,cold_s")
	}
	coldT := sl.cold.iv.end.Sub(sl.cold.iv.start)
	row("exp-store", "cold_s", coldT.Seconds(), sl.coldU.Seconds())
	row("exp-store", "warm_s", sl.warm.iv.end.Sub(sl.warm.iv.start).Seconds(), sl.warmU.Seconds())
	row("exp-store", "insts_per_s", 1/coldT.Seconds(), 1/sl.coldU.Seconds())
	pct("exp-store", sl.simMsT, sl.simMsU)
	fmt.Fprintf(w, "  %-10s %-13s  not traced (set-up runs no decorated value)\n", "exp-store", "setup_s")
}

// layerRow is one line of a "where the time goes" table.
type layerRow struct {
	layer string
	d     time.Duration
}

// printRows prints rows as shares of total, largest first, leaving out
// layers the workload never reached.
func printRows(w io.Writer, rows []layerRow, total time.Duration) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	for _, r := range rows {
		if r.d != 0 {
			fmt.Fprintf(w, "  %-46s %9.3f s %6.1f%%\n", r.layer, r.d.Seconds(), 100*ratio(float64(r.d), float64(total)))
		}
	}
	fmt.Fprintf(w, "  largest self time: %s\n", rows[0].layer)
}

// printSimTable prints where a sim-* workload's time goes: each layer's
// self time as a share of the untraced simulation time. Glue is the
// remainder, so the layers sum to the untraced time; the tracing overhead
// (traced minus untraced) is printed apart.
func printSimTable(w io.Writer, l *simLayers) {
	untraced := l.wallT - l.over
	fmt.Fprintf(w, "where the time goes: %s (%d simulations, %.3f s untraced, %.3f s traced)\n",
		l.name, len(l.msT), untraced.Seconds(), l.wallT.Seconds())
	printRows(w, []layerRow{
		{"cpu (Core.Step)", l.cpuStep},
		{"cpu (Core.StepBatch)", l.cpuBatch},
		{"mem demand (cache, MSHR, dram)", l.memDemand},
		{"mem prefetch (cache, MSHR, dram)", l.memPf},
		{"prefetch components", l.pf},
		{"workloads (stream, classify)", l.wl},
		{"sim glue (build, dispatch, accounting)", l.glue},
	}, untraced)
	fmt.Fprintf(w, "  tracing overhead, not a layer: %.3f s (%.0f%% of untraced)\n", l.over.Seconds(), 100*ratio(float64(l.over), float64(untraced)))
	fmt.Fprintf(w, "  prefetch components timed live in the traced run: %.3f s (replayed alone: %.3f s)\n", l.pfLive.Seconds(), l.pf.Seconds())
}

// printStoreTable prints where exp-store's worker time goes in each pass.
func printStoreTable(w io.Writer, l *storeLayers) {
	for _, p := range []struct {
		name string
		pt   passTrace
	}{{"cold", l.cold}, {"warm", l.warm}} {
		wall := p.pt.iv.end.Sub(p.pt.iv.start)
		capacity := time.Duration(engineWorkers) * wall
		gets, puts, simsT := sumIv(p.pt.gets), sumIv(p.pt.puts), sumIv(p.pt.sims)
		encode := time.Duration(l.encodeMs * 1e6 * float64(len(p.pt.puts)))
		decode := time.Duration(l.decodeMs * 1e6 * float64(len(p.pt.blobs)))
		rows := []layerRow{
			{"sim jobs (simulate, in-run recording)", max(0, simsT-encode)},
			{"sim codec encode (replayed)", min(encode, simsT)},
			{"sim codec decode (replayed)", decode},
			{"store put", puts},
			{"store get", gets},
		}
		busy := time.Duration(0)
		for _, r := range rows {
			busy += r.d
		}
		rows = append(rows, layerRow{"exp, metrics, memo hits and idle (remainder)", capacity - busy})
		self := selfTime(p.pt.iv, append(append(append([]interval(nil), p.pt.gets...), p.pt.sims...), p.pt.puts...))
		fmt.Fprintf(w, "where the time goes: exp-store %s pass (%.3f s wall, %d workers: %.3f s capacity; no worker in a store call or simulation for %.3f s)\n",
			p.name, wall.Seconds(), engineWorkers, capacity.Seconds(), self.Seconds())
		printRows(w, rows, capacity)
	}
}
