package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestUnitcheckSkipsTestFiles holds the vet driver to the pattern driver's
// view of a package. The go command also hands over each package's test
// variant, whose _test.go files hold deliberate test inputs (bogus specs,
// raw line arithmetic); a finding there must not fail `go vet -vettool`.
func TestUnitcheckSkipsTestFiles(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"p.go":      "package p\n\nfunc P() {}\n",
		"bad.go":    "package p\n\nvar _ = 1 // BAD\n",
		"p_test.go": "package p\n\nvar _ = 2 // BAD\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := func(files ...string) []Finding {
		t.Helper()
		cfg := VetConfig{ImportPath: "p", Dir: dir, VetxOutput: filepath.Join(dir, "p.vetx")}
		for _, f := range files {
			cfg.GoFiles = append(cfg.GoFiles, filepath.Join(dir, f))
		}
		os.Remove(cfg.VetxOutput)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, findings, err := unitcheck(cfgPath, []Scoped{{Analyzer: markers}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(cfg.VetxOutput); err != nil {
			t.Errorf("%v: facts file not written: %v", files, err)
		}
		return findings
	}
	if f := vet("p.go", "p_test.go"); len(f) != 0 {
		t.Errorf("finding in a _test.go file reported: %v", f)
	}
	if f := vet("p_test.go"); len(f) != 0 {
		t.Errorf("unit of test files only reported: %v", f)
	}
	if f := vet("p.go", "bad.go", "p_test.go"); len(f) != 1 || filepath.Base(f[0].Pos.Filename) != "bad.go" {
		t.Errorf("want the one finding in bad.go, got %v", f)
	}
}
