package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"testing"
	"text/tabwriter"
	"time"

	"divlab/internal/obs"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/workloads"
)

// testGrid is a miniature but real sweep: stride degree over two workloads.
func testGrid(t *testing.T, insts uint64) Grid {
	t.Helper()
	apps := workloads.SPEC()[:2]
	cfg := sim.DefaultConfig(insts)
	var points []Point
	for _, deg := range []int{1, 2, 4, 8} {
		pf := sim.MustByName(fmt.Sprintf("stride:degree=%d", deg))
		var jobs []runner.Job
		for _, w := range apps {
			jobs = append(jobs,
				runner.Job{Workload: w, Prefetcher: sim.Baseline(), Config: cfg},
				runner.Job{Workload: w, Prefetcher: pf, Config: cfg})
		}
		deg := deg
		points = append(points, Point{
			ID:   fmt.Sprintf("stride-deg=%d", deg),
			Jobs: jobs,
			Eval: func(res []*sim.Result) []obs.Row {
				var rows []obs.Row
				for i := 0; i < len(res); i += 2 {
					sp := 0.0
					if b := res[i].IPC(); b > 0 {
						sp = res[i+1].IPC() / b
					}
					rows = append(rows, obs.Row{
						Workload: apps[i/2].Name, Prefetcher: "stride",
						Variant: fmt.Sprintf("degree=%d", deg), Metric: "speedup", Value: sp,
					})
				}
				return rows
			},
		})
	}
	return Grid{
		Name: "test-degree", Insts: insts, Points: points,
		Render: func(w io.Writer, rows [][]obs.Row) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "point\tworkload\tspeedup")
			for i, pr := range rows {
				for _, r := range pr {
					fmt.Fprintf(tw, "%s\t%s\t%.3f\n", points[i].ID, r.Workload, r.Value)
				}
			}
			return tw.Flush()
		},
	}
}

func renderAll(t *testing.T, g Grid, st store.Store) (text, jsonOut []byte) {
	t.Helper()
	rows, missing, err := Merge(g, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing points after full run: %v", missing)
	}
	var tb bytes.Buffer
	if err := g.Render(&tb, rows); err != nil {
		t.Fatal(err)
	}
	rep, err := Report(g, rows)
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := obs.EncodeReports(&jb, []*obs.Report{rep}); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestShardedMergeByteIdentical: shard 0/2 + shard 1/2 (separate "processes"
// = separate engines) merged must be byte-identical — text and JSON — to a
// single uninterrupted run.
func TestShardedMergeByteIdentical(t *testing.T) {
	g := testGrid(t, 10_000)

	single := store.NewMem()
	sum, err := Run(context.Background(), g, Options{Store: single, Engine: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Computed != 4 || sum.Hits != 0 || len(sum.Pending) != 0 {
		t.Fatalf("single run summary %+v, want 4 computed", sum)
	}
	wantText, wantJSON := renderAll(t, g, single)

	sharded := store.NewMem()
	shardTotal := 0
	for i := 0; i < 2; i++ {
		sum, err := Run(context.Background(), g, Options{
			Store: sharded, Engine: runner.New(), Shard: i, Shards: 2,
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shardTotal += sum.Computed
	}
	if shardTotal != 4 {
		t.Errorf("shards computed %d points total, want 4 (no overlap, no loss)", shardTotal)
	}
	gotText, gotJSON := renderAll(t, g, sharded)
	if !bytes.Equal(wantText, gotText) {
		t.Errorf("sharded text differs from single run:\n%s\nvs\n%s", gotText, wantText)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("sharded JSON differs from single run")
	}
}

// TestKillAndResume: a run cancelled mid-grid persists only finished points;
// the resumed run computes exactly the remainder — no point simulated twice,
// none lost — and the final report is byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	g := testGrid(t, 10_000)

	baseline := store.NewMem()
	if _, err := Run(context.Background(), g, Options{Store: baseline, Engine: runner.New()}); err != nil {
		t.Fatal(err)
	}
	wantText, wantJSON := renderAll(t, g, baseline)

	st := store.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	var first []string
	sum1, err := Run(ctx, g, Options{
		Store: st, Engine: runner.New(),
		OnPoint: func(id string) {
			first = append(first, id)
			if len(first) == 2 {
				cancel() // the "kill": stop after two points land
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if sum1.Computed != 2 || len(first) != 2 {
		t.Fatalf("first run computed %d points (%v), want 2", sum1.Computed, first)
	}

	var second []string
	sum2, err := Run(context.Background(), g, Options{
		Store: st, Engine: runner.New(),
		OnPoint: func(id string) { second = append(second, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Hits != 2 || sum2.Computed != 2 {
		t.Errorf("resume summary %+v, want 2 hits + 2 computed", sum2)
	}
	all := append(append([]string{}, first...), second...)
	sort.Strings(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Errorf("point %s simulated twice across kill and resume", all[i])
		}
	}
	if len(all) != len(g.Points) {
		t.Errorf("%d points computed across both runs, want %d", len(all), len(g.Points))
	}

	gotText, gotJSON := renderAll(t, g, st)
	if !bytes.Equal(wantText, gotText) || !bytes.Equal(wantJSON, gotJSON) {
		t.Error("kill-and-resume output differs from uninterrupted run")
	}
}

// TestLeaseSkipsHeldPoints: a point leased by another live process is left
// pending, not duplicated; once the holder releases (and its record exists),
// a re-run reports it as a hit.
func TestLeaseSkipsHeldPoints(t *testing.T) {
	g := testGrid(t, 10_000)
	st := store.NewMem()
	held := g.Points[1]
	release, ok, err := st.TryLease(leaseName(g.PointDigest(held)), time.Minute)
	if err != nil || !ok {
		t.Fatalf("seed lease: ok=%v err=%v", ok, err)
	}

	sum, err := Run(context.Background(), g, Options{Store: st, Engine: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Computed != 3 || len(sum.Pending) != 1 || sum.Pending[0] != held.ID {
		t.Fatalf("summary %+v, want 3 computed and %q pending", sum, held.ID)
	}

	if err := release(); err != nil {
		t.Fatal(err)
	}
	sum, err = Run(context.Background(), g, Options{Store: st, Engine: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Computed != 1 || sum.Hits != 3 || len(sum.Pending) != 0 {
		t.Errorf("second run summary %+v, want 1 computed / 3 hits", sum)
	}
}

// TestCorruptPointRecomputed: a corrupt point record reads as absent and is
// recomputed and repaired on the next run.
func TestCorruptPointRecomputed(t *testing.T) {
	g := testGrid(t, 10_000)
	st := store.NewMem()
	if _, err := Run(context.Background(), g, Options{Store: st, Engine: runner.New()}); err != nil {
		t.Fatal(err)
	}
	victim := g.PointDigest(g.Points[0])
	st.Corrupt(victim, func(b []byte) []byte { return b[:len(b)/2] })
	// A CRC-valid record whose payload is no report: the store hands the
	// payload over unscanned, and the point reader must refuse it.
	p := g.Points[1]
	st.Corrupt(g.PointDigest(p), func([]byte) []byte {
		return framedRecord(g.PointDigest(p), g.canonical(p), `{"schema":`)
	})
	if _, err := g.load(st, p); !store.IsCorrupt(err) {
		t.Errorf("malformed point payload: load = %v, want CorruptError", err)
	}

	sum, err := Run(context.Background(), g, Options{Store: st, Engine: runner.New()})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Computed != 2 || sum.Hits != 2 {
		t.Errorf("summary %+v, want 2 recomputed / 2 hits", sum)
	}
	if _, missing, _ := Merge(g, st); len(missing) != 0 {
		t.Errorf("still missing after repair: %v", missing)
	}
}

// framedRecord frames a sweep point record around payload verbatim, as
// store.Encode would without checking the payload: CRC-valid whatever the
// payload holds.
func framedRecord(digest, key, payload string) []byte {
	str := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	body := `{"schema":` + str(store.SchemaVersion) + `,"digest":` + str(digest) + `,"key":` + str(key) +
		`,"kind":` + str(store.KindSweepPoint) + `,"payload":` + payload + "}"
	crc := crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli))
	return []byte(fmt.Sprintf("%s len=%d crc32c=%08x\n%s", store.SchemaVersion, len(body), crc, body))
}

// TestShardPartitionCoversGrid: every point lands in exactly one shard for
// any shard count.
func TestShardPartitionCoversGrid(t *testing.T) {
	g := testGrid(t, 10_000)
	for _, n := range []int{1, 2, 3, 7} {
		counts := make([]int, n)
		for _, p := range g.Points {
			s := ShardOf(g.PointDigest(p), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf out of range: %d of %d", s, n)
			}
			counts[s]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(g.Points) {
			t.Errorf("n=%d: %d points assigned, want %d", n, total, len(g.Points))
		}
	}
}

func TestGridValidation(t *testing.T) {
	g := testGrid(t, 10_000)
	g.Points = append(g.Points, g.Points[0])
	if _, err := Run(context.Background(), g, Options{Store: store.NewMem()}); err == nil {
		t.Error("duplicate point IDs accepted")
	}
	if _, err := Run(context.Background(), testGrid(t, 10_000), Options{}); err == nil {
		t.Error("nil store accepted")
	}
}
