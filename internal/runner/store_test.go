package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/workloads"
)

// TestKeyDigestPinned pins the digest of a fully specified key. If this test
// fails, key semantics changed without a DigestVersion bump — which would
// let a warm store silently answer new-semantics queries with old-semantics
// results. Bump DigestVersion and update the pin.
func TestKeyDigestPinned(t *testing.T) {
	j := testJob(t, "stream.pure", "tpc", 20_000)
	k, ok := KeyOf(j)
	if !ok {
		t.Fatal("plain job must be cacheable")
	}
	const want = "divlab.key/v1\nworkload=stream.pure\nprefetcher=tpc\nmulti=false\nseed=1\ninsts=20000\ncores=1\n"
	if !strings.HasPrefix(k.Canonical(), want) {
		t.Errorf("canonical text drifted:\n%s", k.Canonical())
	}
	const pinned = "5d3b45f5d6a06d10261cc46bd3688779" // first 16 bytes, hex
	if got := k.Digest()[:32]; got != pinned {
		t.Errorf("digest drifted: %s (pinned %s) — key semantics changed; bump DigestVersion", got, pinned)
	}
}

// TestKeyOfMatchesEngine: KeyOf must compute exactly the key the engine
// memoizes under, for both single and mix jobs.
func TestKeyOfMatchesEngine(t *testing.T) {
	j := testJob(t, "stream.pure", "tpc", 20_000)
	k, ok := KeyOf(j)
	if !ok || k.Multi || k.Cores != 1 || k.Workload != "stream.pure" {
		t.Errorf("single KeyOf = %+v ok=%v", k, ok)
	}

	mix := workloads.Mixes(1, 3)[0]
	mcfg := sim.DefaultConfig(10_000)
	mcfg.Cores = 4
	mj := Job{Mix: mix, Prefetcher: sim.Baseline(), Config: mcfg}
	mk, ok := KeyOf(mj)
	if !ok || !mk.Multi || mk.Cores != 4 || mk.Workload != mix.Name {
		t.Errorf("mix KeyOf = %+v ok=%v", mk, ok)
	}
	if mj.Results() != 4 || j.Results() != 1 {
		t.Errorf("Results() = %d/%d, want 4/1", mj.Results(), j.Results())
	}

	un := j
	un.Config.CoreParams.Width = 4 // force non-zero so normalize keeps it
	un.Config.TraceSink = &nullSink{}
	if _, ok := KeyOf(un); ok {
		t.Error("job with live trace sink must be uncacheable")
	}
}

// TestStoreReadThroughWriteBehind is the heart of the tentpole: a cold
// engine simulates and persists; a fresh engine sharing the store answers
// every job from it with zero simulations and identical measurements.
func TestStoreReadThroughWriteBehind(t *testing.T) {
	st := store.NewMem()
	jobs := []Job{
		testJob(t, "stream.pure", "none", 15_000),
		testJob(t, "stream.pure", "tpc", 15_000),
		testJob(t, "chase.seq", "tpc", 15_000),
	}

	cold := New(WithWorkers(2), WithStore(st))
	coldRes := cold.Run(context.Background(), jobs)
	if s := cold.StoreStats(); s.Hits != 0 || s.Puts != 3 || s.Errs != 0 {
		t.Fatalf("cold stats %+v, want 0 hits / 3 puts / 0 errs", s)
	}
	if cold.Sims() != 3 {
		t.Fatalf("cold engine ran %d sims, want 3", cold.Sims())
	}

	warm := New(WithWorkers(2), WithStore(st))
	warmRes := warm.Run(context.Background(), jobs)
	if s := warm.StoreStats(); s.Hits != 3 || s.Puts != 0 || s.Errs != 0 {
		t.Errorf("warm stats %+v, want 3 hits / 0 puts / 0 errs", s)
	}
	if warm.Sims() != 0 {
		t.Errorf("warm engine ran %d sims, want 0", warm.Sims())
	}
	if warm.Jobs() != 3 {
		t.Errorf("warm engine counted %d jobs, want 3", warm.Jobs())
	}
	for i := range jobs {
		if !reflect.DeepEqual(coldRes[i], warmRes[i]) {
			t.Errorf("job %d: store round trip altered the result", i)
		}
	}

	// Within the warm process, repeats hit the memo tier, not the store.
	warm.Run(context.Background(), jobs)
	if s := warm.StoreStats(); s.Hits != 3 {
		t.Errorf("repeat batch consulted the store again (%d hits)", s.Hits)
	}
}

// TestStoreCorruptRecordFallsBack: a corrupt record is an absorbed error —
// the engine re-simulates, returns the fresh run's result and overwrites the
// record with a good one. Besides a flipped bit, the cases are CRC-valid
// records whose payload the result decoder must refuse.
func TestStoreCorruptRecordFallsBack(t *testing.T) {
	single := testJob(t, "stream.pure", "tpc", 15_000)
	mcfg := sim.DefaultConfig(5_000)
	mcfg.Cores = 4
	mix := Job{Mix: workloads.Mixes(1, 3)[0], Prefetcher: sim.MustByName("tpc"), Config: mcfg}

	// edit re-frames the record around an edited copy of the good payload.
	edit := func(f func(payload string) string) func(Key, []byte, []*sim.Result) []byte {
		return func(k Key, _ []byte, want []*sim.Result) []byte {
			payload, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			return framedRecord(k, f(string(payload)))
		}
	}
	for _, c := range []struct {
		name   string
		job    Job
		mutate func(k Key, rec []byte, want []*sim.Result) []byte
	}{
		{"bit flip", single, func(_ Key, rec []byte, _ []*sim.Result) []byte { rec[len(rec)-2] ^= 1; return rec }},
		{"truncated array", single, edit(func(p string) string { return strings.TrimSuffix(p, "]") })},
		{"trailing bytes", single, edit(func(p string) string { return p + "[]" })},
		{"unknown field", single, edit(func(p string) string { return strings.Replace(p, `{"core":`, `{"extra":1,"core":`, 1) })},
		{"map count 2^32", single, edit(func(p string) string {
			return strings.Replace(p, `"miss_l1_lines":null`, `"miss_l1_lines":{"64":4294967296}`, 1)
		})},
		{"owner slot 256", single, edit(func(p string) string { return strings.Replace(p, `"owner_slots":[`, `"owner_slots":[256,`, 1) })},
		{"one result for a mix", mix, func(k Key, _ []byte, want []*sim.Result) []byte {
			payload, err := json.Marshal(want[:1])
			if err != nil {
				t.Fatal(err)
			}
			return framedRecord(k, string(payload))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := store.NewMem()
			want := New(WithStore(st)).Run(context.Background(), []Job{c.job})
			k, _ := KeyOf(c.job)
			st.Corrupt(k.Digest(), func(b []byte) []byte { return c.mutate(k, b, want) })

			e := New(WithStore(st))
			got := e.Run(context.Background(), []Job{c.job})
			if !reflect.DeepEqual(got, want) {
				t.Error("fallback result differs from the fresh run's")
			}
			s := e.StoreStats()
			if s.Errs != 1 || s.Hits != 0 || s.Puts != 1 {
				t.Errorf("stats %+v, want 1 err / 0 hits / 1 put (re-simulated and repaired)", s)
			}
			if e.Sims() != 1 {
				t.Errorf("sims=%d, want 1", e.Sims())
			}

			// The overwrite repaired the record: a third engine hits cleanly.
			third := New(WithStore(st))
			third.Run(context.Background(), []Job{c.job})
			if s := third.StoreStats(); s.Hits != 1 || s.Errs != 0 {
				t.Errorf("after repair: stats %+v, want a clean hit", s)
			}
		})
	}
}

// framedRecord frames a results record for k around payload verbatim, as
// store.Encode would without checking the payload: CRC-valid whatever the
// payload holds.
func framedRecord(k Key, payload string) []byte {
	str := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	body := `{"schema":` + str(store.SchemaVersion) + `,"digest":` + str(k.Digest()) +
		`,"key":` + str(k.Canonical()) + `,"kind":` + str(store.KindResults) + `,"payload":` + payload + "}"
	crc := crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli))
	return []byte(fmt.Sprintf("%s len=%d crc32c=%08x\n%s", store.SchemaVersion, len(body), crc, body))
}

// TestStoreKeyMismatchIsMiss: a record whose envelope key text disagrees
// with the reader's canonical form (digest-version drift, collision) must
// read as a miss, not as a result.
func TestStoreKeyMismatchIsMiss(t *testing.T) {
	st := store.NewMem()
	j := testJob(t, "stream.pure", "tpc", 15_000)
	k, _ := KeyOf(j)

	// Forge a record at j's address but describing a different run.
	r := sim.RunSingle(j.Workload, j.Prefetcher.Factory, j.Config)
	payload, err := json.Marshal([]*sim.Result{r})
	if err != nil {
		t.Fatal(err)
	}
	forged := &store.Record{Schema: store.SchemaVersion, Digest: k.Digest(),
		Key: "divlab.key/v0\nsomething-else\n", Kind: store.KindResults, Payload: payload}
	if err := st.Put(forged); err != nil {
		t.Fatal(err)
	}

	e := New(WithStore(st))
	runOne(e, j)
	s := e.StoreStats()
	if s.Hits != 0 || s.Errs != 1 {
		t.Errorf("stats %+v: mismatched key must be a counted miss, not a hit", s)
	}
	if e.Sims() != 1 {
		t.Errorf("sims=%d, want 1 (re-simulated)", e.Sims())
	}
}

// TestStoreSkipsTracedRuns: lifecycle-traced results cannot serialize, so
// they stay in the memo tier only.
func TestStoreSkipsTracedRuns(t *testing.T) {
	st := store.NewMem()
	j := testJob(t, "stream.pure", "tpc", 15_000)
	j.Config.TraceLifecycle = true
	e := New(WithStore(st))
	if r := runOne(e, j); r.Lifecycle == nil {
		t.Fatal("traced run lost its lifecycle")
	}
	if s := e.StoreStats(); s.Puts != 0 || s.Errs != 0 {
		t.Errorf("traced run touched the store: %+v", s)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d records, want 0", st.Len())
	}
}

// TestRunFlattensMixes: Engine.Run lays out single and mix results in job
// order with per-job offsets.
func TestRunFlattensMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore runs are long")
	}
	e := New(WithWorkers(4))
	mix := workloads.Mixes(1, 3)[0]
	cfg := sim.DefaultConfig(10_000)
	cfg.Cores = 4
	jobs := []Job{
		testJob(t, "stream.pure", "none", 10_000),
		{Mix: mix, Prefetcher: sim.Baseline(), Config: cfg},
		testJob(t, "chase.seq", "none", 10_000),
	}
	res := e.Run(context.Background(), jobs)
	if len(res) != 6 {
		t.Fatalf("got %d results, want 6 (1+4+1)", len(res))
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
	}
	// Slots 1..4 are the mix cores; running the mix job alone must serve
	// the same memoized results.
	multi := e.Run(context.Background(), jobs[1:2])
	for i := 0; i < 4; i++ {
		if res[1+i] != multi[i] {
			t.Errorf("mix core %d not shared with the memoized multi result", i)
		}
	}
}

// TestRunHonorsCancellation: a cancelled context skips undispatched jobs,
// leaving nil results, without failing the batch.
func TestRunHonorsCancellation(t *testing.T) {
	e := New(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Run(ctx, []Job{testJob(t, "stream.pure", "none", 10_000)})
	if len(res) != 1 || res[0] != nil {
		t.Errorf("cancelled run returned %v, want [nil]", res)
	}
	if e.Sims() != 0 {
		t.Errorf("cancelled run simulated %d jobs", e.Sims())
	}
}
