package exp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"divlab/internal/exp"
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
	if err := exp.RunAll(exp.TextSink(&got), o); err != nil {
		t.Fatal(err)
	}
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
