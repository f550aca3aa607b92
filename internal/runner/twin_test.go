package runner

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/workloads"
)

// twinBatch builds a batch in which jobs that have a twin (see twins) come
// right after it, and reports how many jobs a one-worker engine answers
// from a twin. It covers every sim.List() spec and none on two workloads,
// traced runs, a tagged DestOverride, both twin kinds on a 4-core mix and a
// drop policy that has no drop twin.
func twinBatch(t *testing.T) (jobs []Job, derived int) {
	t.Helper()
	const insts = 10_000
	// add appends j with footprints, then each variant of it, one per edit
	// of a copy; variants with twins earlier in the batch count as derived.
	add := func(j Job, variants ...func(*Job)) {
		j.Config.CollectFootprint = true
		jobs = append(jobs, j)
		for _, edit := range variants {
			v := j
			edit(&v)
			jobs = append(jobs, v)
		}
	}
	noFootprint := func(j *Job) { j.Config.CollectFootprint = false }
	randomDrop := func(j *Job) { j.Config.DropPolicy = dram.DropRandomPrefetch }
	specs := []string{"none"}
	for _, inf := range sim.List() {
		specs = append(specs, inf.Spec)
	}
	for _, w := range []string{"stream.pure", "chase.rand"} {
		for _, spec := range specs {
			add(testJob(t, w, spec, insts), noFootprint)
			derived++
		}
	}
	for _, spec := range []string{"none", "tpc"} {
		j := testJob(t, "mix.phases", spec, insts)
		j.Config.TraceLifecycle = true
		add(j, noFootprint)
		derived++
	}
	tagged := testJob(t, "stream.pure", "tpc", insts)
	tagged.Config.DestOverride = func(prefetch.Request, workloads.Category) mem.Level { return mem.L2 }
	tagged.DestTag = "L2"
	add(tagged, noFootprint)
	derived++
	// gups.large drops prefetches: a footprint run and a footprint-free
	// one under each policy that sheds like DropNone, then one under
	// DropLowPriorityPrefetch, whose only twin (with footprints) is absent.
	add(testJob(t, "gups.large", "tpc", insts),
		randomDrop,
		func(j *Job) { randomDrop(j); noFootprint(j) },
		func(j *Job) { j.Config.DropPolicy = dram.DropLowPriorityPrefetch; noFootprint(j) })
	derived += 2

	mcfg := sim.DefaultConfig(insts)
	mcfg.Cores = 4
	mix := workloads.Mixes(1, 3)[0]
	for _, spec := range []string{"none", "tpc"} {
		add(Job{Mix: mix, Prefetcher: sim.MustByName(spec), Config: mcfg}, noFootprint,
			func(j *Job) { randomDrop(j); noFootprint(j) },
			func(j *Job) { j.Config.DropPolicy = dram.DropLowPriorityPrefetch; noFootprint(j) })
		derived += 2
	}
	return jobs, derived
}

// freshEncoding runs j on a fresh Machine, without the engine, and returns
// its results' encoding and their lifecycle trackers.
func freshEncoding(t *testing.T, j Job) ([]byte, []*obs.Lifecycle) {
	t.Helper()
	var rs []*sim.Result
	if j.isMix() {
		rs = sim.RunMultiOn(nil, j.Mix, j.Prefetcher.Factory, j.Config)
	} else {
		rs = []*sim.Result{sim.RunSingleOn(nil, j.Workload, j.Prefetcher.Factory, j.Config)}
	}
	return encodeTraced(t, rs)
}

// encodeTraced encodes copies of rs with their lifecycle trackers detached,
// which EncodeResults refuses, and returns the trackers beside the bytes.
func encodeTraced(t *testing.T, rs []*sim.Result) ([]byte, []*obs.Lifecycle) {
	t.Helper()
	plain := make([]*sim.Result, len(rs))
	lcs := make([]*obs.Lifecycle, len(rs))
	for i, r := range rs {
		c := *r
		c.Lifecycle, lcs[i] = nil, r.Lifecycle
		plain[i] = &c
	}
	b, err := sim.EncodeResults(plain)
	if err != nil {
		t.Fatal(err)
	}
	return b, lcs
}

// TestTwinResultsExact holds the twin rule to fresh runs: every result an
// engine returns, whether it simulated the job or answered it from a twin,
// must encode to the bytes of a fresh run of the job's own config and carry
// an equal lifecycle tracker. At one worker each twin has finished before
// the job that reads it starts; at two and eight, jobs wait on twins still
// being simulated. Every untraced key, derived ones too, must be put to the
// store.
func TestTwinResultsExact(t *testing.T) {
	jobs, wantDerived := twinBatch(t)
	type fresh struct {
		enc []byte
		lcs []*obs.Lifecycle
	}
	want := make([]fresh, len(jobs))
	untraced := 0
	for i, j := range jobs {
		want[i].enc, want[i].lcs = freshEncoding(t, j)
		if !j.Config.TraceLifecycle {
			untraced++
		}
	}
	for _, workers := range []int{1, 2, 8} {
		st := store.NewMem()
		e := New(WithWorkers(workers), WithStore(st))
		flat := e.Run(context.Background(), jobs)
		off := 0
		for i, j := range jobs {
			n := j.Results()
			got, lcs := encodeTraced(t, flat[off:off+n])
			off += n
			k, _ := KeyOf(j)
			if !bytes.Equal(got, want[i].enc) {
				t.Errorf("%d workers: job %d (%s/%s, footprint=%t, drop=%d, trace=%t, dest=%q): results differ from a fresh run",
					workers, i, k.Workload, k.Prefetcher, k.Footprint, k.Drop, k.Trace, k.DestTag)
			}
			if !reflect.DeepEqual(lcs, want[i].lcs) {
				t.Errorf("%d workers: job %d (%s/%s, footprint=%t): lifecycle differs from a fresh run",
					workers, i, k.Workload, k.Prefetcher, k.Footprint)
			}
		}
		derived := int(e.Derived())
		if workers == 1 && derived != wantDerived {
			t.Errorf("1 worker: %d jobs derived, want %d", derived, wantDerived)
		}
		if derived == 0 || derived > wantDerived {
			t.Errorf("%d workers: %d jobs derived, want 1..%d", workers, derived, wantDerived)
		}
		if got := int(e.Sims()) + derived; got != len(jobs) {
			t.Errorf("%d workers: %d sims + %d derived, want %d distinct jobs", workers, e.Sims(), derived, len(jobs))
		}
		if s := e.StoreStats(); int(s.Puts) != untraced || s.Errs != 0 {
			t.Errorf("%d workers: store %+v, want %d puts (every untraced key) and no errors", workers, s, untraced)
		}
	}
}
