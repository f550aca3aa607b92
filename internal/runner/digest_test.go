package runner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"divlab/internal/runner"
	"divlab/internal/sweep"
)

// The files that pin simulated behaviour, with their SHA-256 as of the
// digest versions below. A store serves a record for as long as its digest
// version stands, so a change that regenerates one of these files — a
// change to what some key's simulation produces — must bump
// runner.DigestVersion and sweep.DigestVersion, so that records written
// before it read as misses. Then re-pin the versions and the hashes here.
const (
	pinnedRunnerDigestVersion = 1
	pinnedSweepDigestVersion  = 1
)

var behaviourPins = []struct{ path, sha256 string }{
	{"../exp/testdata/quick_all.golden", "ea0174976886bad68d158aaf83af0da7ee4f44618957436be65804f304a31e36"},
	{"../exp/testdata/quick_all.golden.json", "b65dda0b3d05a0dd2e15cb7e59ad5d7636344506672a40b0d141cee8f2a79ed0"},
	{"../sim/testdata/footprint.golden.json", "27191d578eac92ff6b103dea17943edd580a81a672f49dc611a653b8f3f6b5ae"},
	{"../../perfbench/digests.json", "d6873f1e4cfebc82dc9157d8378def6e2b38b893adc68ba8a165aed4b0a20d8a"},
}

// TestDigestVersionsPinBehaviour fails by file name when a behaviour golden
// changed under unchanged digest versions, and when a version was bumped
// without re-pinning.
func TestDigestVersionsPinBehaviour(t *testing.T) {
	if runner.DigestVersion != pinnedRunnerDigestVersion || sweep.DigestVersion != pinnedSweepDigestVersion {
		t.Fatalf("digest versions are runner %d, sweep %d, but the pins were taken at %d and %d: re-pin the versions and the hashes of %d files",
			runner.DigestVersion, sweep.DigestVersion, pinnedRunnerDigestVersion, pinnedSweepDigestVersion, len(behaviourPins))
	}
	for _, pin := range behaviourPins {
		data, err := os.ReadFile(pin.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
			t.Errorf("%s changed (sha256 %s, pinned %s) under digest versions runner %d, sweep %d: simulated results changed, so bump runner.DigestVersion and sweep.DigestVersion, then re-pin",
				pin.path, got, pin.sha256, runner.DigestVersion, sweep.DigestVersion)
		}
	}
}
