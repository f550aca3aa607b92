package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"
)

// This file implements enough of the `go vet -vettool` unitchecker protocol
// for divlint to run under the go command:
//
//	divlint -V=full          print a version line (build cache key)
//	divlint -flags           print the supported analyzer flags (none)
//	divlint [-json] x.cfg    analyze one package described by a vet config
//
// The go command hands each package a JSON config naming its sources and the
// export-data files of its dependencies; diagnostics go to stderr (or stdout
// as JSON with -json) and a facts file must be written even though the
// divlint analyzers exchange no facts. The go command also hands over each
// package's test variant; its _test.go files, which hold deliberate test
// inputs, are left out, as the pattern driver never loads them.

// VetConfig mirrors the fields of the go command's vet.cfg handed to
// -vettool binaries.
type VetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// UnitcheckMain implements the vettool entry protocol. It returns true when
// it recognized and fully handled the invocation (the caller should exit),
// false when the arguments are not a unitchecker invocation.
func UnitcheckMain(args []string, analyzers []Scoped, version string) bool {
	jsonOut := false
	var cfgPath string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Printf("divlint version %s\n", version)
			return true
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return true
		case a == "-json" || a == "--json":
			jsonOut = true
		case len(a) > 4 && a[len(a)-4:] == ".cfg":
			cfgPath = a
		}
	}
	if cfgPath == "" {
		return false
	}
	importPath, findings, err := unitcheck(cfgPath, analyzers)
	if err == nil && jsonOut && importPath != "" {
		err = writeJSONDiagnostics(os.Stdout, importPath, findings)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "divlint:", err)
		os.Exit(1)
	}
	if jsonOut {
		return true
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
	return true
}

// unitcheck analyzes the package a vet config describes, without its
// _test.go files, and returns its import path and findings. The path is
// empty when nothing was analyzed.
func unitcheck(cfgPath string, analyzers []Scoped) (string, []Finding, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return "", nil, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return "", nil, fmt.Errorf("%s: %v", cfgPath, err)
	}
	// The go command requires the facts file to exist even when empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return "", nil, err
		}
	}
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if cfg.VetxOnly || len(files) == 0 {
		return "", nil, nil
	}

	fset := token.NewFileSet()
	// Export data is keyed by canonical package path; ImportMap carries the
	// as-written-in-source aliases (vendoring, test variants) onto it.
	exports := make(map[string]string, len(cfg.PackageFile)+len(cfg.ImportMap))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for src, canon := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canon]; ok {
			exports[src] = file
		}
	}
	imp := exportImporter(fset, exports)
	pkg, err := checkPackage(fset, imp, cfg.ImportPath, cfg.Dir, files)
	if err != nil {
		return "", nil, err
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return "", nil, nil
		}
		return "", nil, fmt.Errorf("%s: type checking failed: %v", cfg.ImportPath, pkg.TypeErrors[0])
	}
	findings, err := RunAnalyzers([]*Package{pkg}, analyzers)
	return cfg.ImportPath, findings, err
}

// writeJSONDiagnostics emits the go vet -json shape:
// {"pkg": {"analyzer": [{"posn": "...", "message": "..."}]}}.
func writeJSONDiagnostics(w io.Writer, pkgPath string, findings []Finding) error {
	type diag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]diag{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], diag{Posn: f.Pos.String(), Message: f.Message})
	}
	out := map[string]map[string][]diag{pkgPath: byAnalyzer}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}
