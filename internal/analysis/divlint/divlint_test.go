package divlint_test

import (
	"testing"

	"divlab/internal/analysis/divlint"
)

// TestTreeIsClean is the zero-findings regression gate: the whole module must
// lint clean, so any new violation fails `go test` as well as `make lint`.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	findings, err := divlint.Run("../../..", "./...")
	if err != nil {
		t.Fatalf("divlint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestSuiteComplete pins the suite roster: TestTreeIsClean only gates the
// analyzers Suite() actually runs, so silently dropping one would pass the
// zero-findings check while losing the contract. Order is reporting order.
func TestSuiteComplete(t *testing.T) {
	want := []string{"determinism", "specstring", "sinkerr", "lineaddr"}
	suite := divlint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, sc := range suite {
		if sc.Analyzer.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, sc.Analyzer.Name, want[i])
		}
	}
}

// TestNoStaleAllows is the suppression-hygiene gate: every justified
// lint:allow in the tree must still be earning its keep. A stale allow is a
// hole a future regression walks through silently.
func TestNoStaleAllows(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	stale, err := divlint.Audit("../../..", "./...")
	if err != nil {
		t.Fatalf("divlint -audit: %v", err)
	}
	for _, s := range stale {
		t.Errorf("%s", s.String())
	}
}
