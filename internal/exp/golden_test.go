package exp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"divlab/internal/exp"
	"divlab/internal/obs"
	"divlab/internal/runner"
)

// TestRunAllMatchesSeedGolden pins the full quick-options experiment suite
// to the byte-exact text report the pre-optimization simulator produced
// (testdata/quick_all.golden, generated from the seed tree). Every hot-path
// rewrite — the SoA caches, the fused MSHR sweeps, the dense per-owner
// accounting, instruction pre-recording and replay — is required to be
// semantics-preserving; this test is the executable form of that claim.
//
// If a deliberate model change ever invalidates the golden file, regenerate
// it with:
//
//	exp.RunAll(exp.TextSink(f), exp.QuickOptions())
//
// and say so in the commit message; an unexplained diff here is a bug. A
// regenerated golden means stored results are stale: bump
// runner.DigestVersion and sweep.DigestVersion and re-pin the file's hash
// (runner's TestDigestVersionsPinBehaviour fails until then).
//
// The text rounds to three decimals, so the same run also goes through a
// structured sink, and its divlab.exp/v1 reports, encoded by
// obs.EncodeReports and compacted, must equal
// testdata/quick_all.golden.json: every bit of every value is pinned.
// Regenerate and re-pin it together with the text golden.
func TestRunAllMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still simulates millions of instructions")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	o := exp.QuickOptions()
	o.Engine = runner.New() // private cache: the golden run shares no state
	sink := exp.NewSink(&got, true)
	if err := exp.RunAll(sink, o); err != nil {
		t.Fatal(err)
	}
	checkStructuredGolden(t, sink.Reports)
	if !bytes.Equal(got.Bytes(), want) {
		diffAt := len(want)
		for i := 0; i < len(want) && i < got.Len(); i++ {
			if got.Bytes()[i] != want[i] {
				diffAt = i
				break
			}
		}
		lo := diffAt - 120
		if lo < 0 {
			lo = 0
		}
		hi := diffAt + 120
		ctx := func(b []byte) string {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return ""
			}
			return string(b[lo:h])
		}
		t.Fatalf("quick -exp all output diverged from the seed simulator at byte %d\nwant ...%q...\ngot  ...%q...",
			diffAt, ctx(want), ctx(got.Bytes()))
	}
}

// checkStructuredGolden compares the compacted obs.EncodeReports encoding of
// reports with testdata/quick_all.golden.json and names the first row or
// aggregate that differs.
func checkStructuredGolden(t *testing.T, reports []*obs.Report) {
	t.Helper()
	const path = "testdata/quick_all.golden.json"
	want, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	var enc, got bytes.Buffer
	if err := obs.EncodeReports(&enc, reports); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantReports, err := obs.DecodeReports(want)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	t.Errorf("structured report diverged from %s: %s", path, firstRowDiff(wantReports, reports))
}

// firstRowDiff describes the first row or aggregate, in report order, that
// differs between want and got.
func firstRowDiff(want, got []*obs.Report) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d reports, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		for _, part := range []struct {
			kind string
			g, w []obs.Row
		}{{"row", g.Rows, w.Rows}, {"aggregate", g.Aggregates, w.Aggregates}} {
			for j := range max(len(part.g), len(part.w)) {
				var gr, wr obs.Row
				if j < len(part.g) {
					gr = part.g[j]
				}
				if j < len(part.w) {
					wr = part.w[j]
				}
				if gr != wr {
					return fmt.Sprintf("%s %s %d is %+v, want %+v", g.Experiment, part.kind, j, gr, wr)
				}
			}
		}
	}
	return "every row and aggregate is equal; a report header or lifecycle block differs"
}
