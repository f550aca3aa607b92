package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"divlab/internal/exp"
	"divlab/internal/runner"
	"divlab/internal/store"
)

const (
	// engineWorkers is the engine's worker pool size in exp-store.
	engineWorkers = 2
	// warmPasses is the number of warm passes run over each filled store.
	warmPasses = 2
	// storeSetupRepeats is how many times exp-store sets up per round.
	storeSetupRepeats = 21
	// goldenPath is the committed quick-options report, relative to the
	// checkout root the benchmark runs from.
	goldenPath = "internal/exp/testdata/quick_all.golden"
)

// storeTap hands a store.Store to the engine and reads the clock around its
// calls. A job that simulates misses the store, simulates, encodes its
// result and puts it, all on one worker, so the interval from the miss to
// the put is that job's simulation time (plus result encoding). Timed runs
// record only that interval; the traced run also keeps every get and put.
type storeTap struct {
	inner  store.Store
	traced bool

	mu     sync.Mutex
	missAt map[string]time.Time
	sims   []interval
	keys   []string
	gets   []interval
	puts   []interval
	sizes  []int
	blobs  [][]byte
}

func newStoreTap(inner store.Store, traced bool) *storeTap {
	return &storeTap{inner: inner, traced: traced, missAt: map[string]time.Time{}}
}

// Get implements store.Store.
func (s *storeTap) Get(digest string) (*store.Record, error) {
	t0 := time.Now()
	rec, err := s.inner.Get(digest)
	t1 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, store.ErrNotFound) {
		s.missAt[digest] = t1
	}
	if s.traced {
		s.gets = append(s.gets, interval{t0, t1})
		if err == nil {
			s.blobs = append(s.blobs, rec.Payload)
		}
	}
	return rec, err
}

// Put implements store.Store.
func (s *storeTap) Put(rec *store.Record) error {
	t0 := time.Now()
	s.mu.Lock()
	if at, ok := s.missAt[rec.Digest]; ok {
		s.sims = append(s.sims, interval{at, t0})
		s.keys = append(s.keys, rec.Key)
	}
	s.mu.Unlock()
	err := s.inner.Put(rec)
	if s.traced {
		t1 := time.Now()
		s.mu.Lock()
		s.puts = append(s.puts, interval{t0, t1})
		s.sizes = append(s.sizes, len(rec.Payload))
		s.mu.Unlock()
	}
	return err
}

// TryLease implements store.Store.
func (s *storeTap) TryLease(name string, ttl time.Duration) (func() error, bool, error) {
	return s.inner.TryLease(name, ttl)
}

// simulatedInsts sums cores × insts over the keys of every simulated job.
func (s *storeTap) simulatedInsts() (uint64, error) {
	var total uint64
	for _, k := range s.keys {
		insts, err1 := keyField(k, "insts")
		cores, err2 := keyField(k, "cores")
		if err := errors.Join(err1, err2); err != nil {
			return 0, err
		}
		total += insts * cores
	}
	return total, nil
}

// keyField reads one numeric field of a canonical runner key.
func keyField(key, field string) (uint64, error) {
	for _, line := range strings.Split(key, "\n") {
		if v, ok := strings.CutPrefix(line, field+"="); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("key has no %s field", field)
}

// expStore is one exp-store round's state: an empty store and the engines
// that will run over it.
type expStore struct {
	tap  *storeTap
	cold *runner.Engine
	warm []*runner.Engine
}

// setupExpStore creates an empty store directory and the round's engines.
func setupExpStore(dir string, traced bool) (*expStore, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("exp-store: clear %s: %w", dir, err)
	}
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, err
	}
	es := &expStore{tap: newStoreTap(fs, traced)}
	es.cold = runner.New(runner.WithWorkers(engineWorkers), runner.WithStore(es.tap))
	for i := 0; i < warmPasses; i++ {
		es.warm = append(es.warm, runner.New(runner.WithWorkers(engineWorkers), runner.WithStore(es.tap)))
	}
	return es, nil
}

// expOptions returns the quick experiment options on one engine.
func expOptions(seed uint64, e *runner.Engine) exp.Options {
	o := exp.QuickOptions()
	o.Seed = seed
	o.Engine = e
	return o
}

// storeOutcome is what a timed exp-store run reports.
type storeOutcome struct {
	setupS   float64
	coldS    []float64
	warmS    []float64
	coldPeak []float64
	warmPeak []float64
	// jobMs holds each simulated job's times, keyed by its canonical key.
	jobMs map[string][]float64
	// passInsts is the instructions one cold pass simulates.
	passInsts uint64
	attempted int
	failed    int
	problems  []string
}

// checkWarm checks a warm engine against the store counters of the cold
// engine that filled the store.
func checkWarm(cold runner.StoreStats, warm *runner.Engine) []string {
	var bad []string
	if n := warm.Sims(); n != 0 {
		bad = append(bad, fmt.Sprintf("warm engine simulated %d jobs", n))
	}
	if w := warm.StoreStats().Hits; w != cold.Puts {
		bad = append(bad, fmt.Sprintf("warm store hits %d != cold puts %d", w, cold.Puts))
	}
	if e := warm.StoreStats().Errs + cold.Errs; e != 0 {
		bad = append(bad, fmt.Sprintf("%d store errors", e))
	}
	return bad
}

// runStoreWorkload times exp-store: rounds of one cold pass into an empty
// store and warmPasses warm passes over it, until the time is up.
func runStoreWorkload(workDir string, seed uint64, seconds float64, golden []byte) (*storeOutcome, error) {
	o := &storeOutcome{jobMs: map[string][]float64{}}
	dir := filepath.Join(workDir, "exp-store")
	spare := filepath.Join(workDir, "exp-store-setup")
	defer os.RemoveAll(dir)
	defer os.RemoveAll(spare)
	// Set-up takes tens of microseconds, where this host's noise comes in
	// windows of seconds, so setup_s is the median of samples taken before
	// every pass rather than in one burst. The samples before a warm pass
	// set up a spare store, which is dropped.
	var setups []float64
	var firstCold []byte
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		es, err := sampleSetups(dir, &setups)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			start = time.Now()
		}

		coldOut, wall, peak, err := timedRunAll(seed, es.cold)
		if err != nil {
			return nil, err
		}
		o.coldS = append(o.coldS, wall.Seconds())
		o.coldPeak = append(o.coldPeak, peak)
		jobs := int(es.cold.Jobs())
		coldStats := es.cold.StoreStats()
		// Drop the cold engine, and each warm engine after its pass, so a
		// pass's peak memory holds no earlier engine's run cache.
		es.cold = nil
		o.attempted += jobs
		var bad []string
		if golden != nil && !bytes.Equal(coldOut, golden) {
			bad = append(bad, "cold report differs from "+goldenPath)
		}
		if firstCold == nil {
			firstCold = coldOut
		} else if !bytes.Equal(coldOut, firstCold) {
			bad = append(bad, "cold report differs from the run's first")
		}
		for i, iv := range es.tap.sims {
			k := es.tap.keys[i]
			o.jobMs[k] = append(o.jobMs[k], float64(iv.end.Sub(iv.start).Nanoseconds())/1e6)
		}
		if o.passInsts, err = es.tap.simulatedInsts(); err != nil {
			return nil, err
		}
		if len(bad) > 0 {
			o.failed += jobs
			o.problems = append(o.problems, bad...)
		}

		for i, w := range es.warm {
			es.warm[i] = nil
			if _, err := sampleSetups(spare, &setups); err != nil {
				return nil, err
			}
			warmOut, wall, peak, err := timedRunAll(seed, w)
			if err != nil {
				return nil, err
			}
			o.warmS = append(o.warmS, wall.Seconds())
			o.warmPeak = append(o.warmPeak, peak)
			jobs := int(w.Jobs())
			o.attempted += jobs
			bad := checkWarm(coldStats, w)
			if !bytes.Equal(warmOut, coldOut) {
				bad = append(bad, "warm report differs from cold")
			}
			if len(bad) > 0 {
				o.failed += jobs
				o.problems = append(o.problems, bad...)
			}
		}
	}
	o.setupS = median(setups)
	return o, nil
}

// sampleSetups times storeSetupRepeats set-ups of an empty store in dir and
// returns the last. Set-up is a handful of mkdirs, which stall while the
// kernel writes back the previous pass's store files, so the samples wait
// for that writeback; they also follow a garbage collection, and the freed
// heap stays with the process, so set-up times no page faults.
func sampleSetups(dir string, setups *[]float64) (*expStore, error) {
	syscall.Sync()
	runtime.GC()
	var es *expStore
	for i := 0; i < storeSetupRepeats; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if es, err = setupExpStore(dir, false); err != nil {
			return nil, err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return es, nil
}

// timedRunAll runs exp.RunAll on one engine and returns its report, wall
// time and peak memory.
func timedRunAll(seed uint64, e *runner.Engine) ([]byte, time.Duration, float64, error) {
	var buf bytes.Buffer
	settle()
	pk, err := startPeakRSS()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	err = exp.RunAll(exp.TextSink(&buf), expOptions(seed, e))
	wall := time.Since(t0)
	peak := pk.Stop()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("exp-store: %w", err)
	}
	return buf.Bytes(), wall, peak, nil
}

// jobMedians returns each simulated job's median time over the cold passes.
func (o *storeOutcome) jobMedians() []float64 {
	keys := make([]string, 0, len(o.jobMs))
	for k := range o.jobMs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	perJob := make([][]float64, len(keys))
	for i, k := range keys {
		perJob[i] = o.jobMs[k]
	}
	return caseMedians(perJob)
}

// metrics renders an exp-store outcome as the end-to-end metric set.
func (o *storeOutcome) metrics() (map[string]float64, error) {
	ms := o.jobMedians()
	p50, _ := percentile(ms, 50)
	p90, ok := percentile(ms, 90)
	if !ok {
		return nil, fmt.Errorf("sim_ms_p90 refused: %d samples", len(ms))
	}
	return map[string]float64{
		"setup_s":      o.setupS,
		"insts_per_s":  ratio(float64(o.passInsts), median(o.coldS)),
		"sim_ms_p50":   p50,
		"sim_ms_p90":   p90,
		"cold_s":       median(o.coldS),
		"warm_s":       median(o.warmS),
		"cold_peak_mb": median(o.coldPeak),
		"warm_peak_mb": median(o.warmPeak),
	}, nil
}
