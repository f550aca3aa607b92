// Package analysistest is a fixture harness for the project's analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture packages
// live under testdata/src/<pkg>, and expected findings are marked in-line
// with trailing comments of the form
//
//	badCall() // want "regexp matching the message"
//
// Multiple expectations on one line are written as separate quoted regexps.
// Fixtures may import real module packages (divlab/internal/sim, ...) —
// they are resolved from compiler export data via `go list -export` — or
// other fixture packages under the same testdata/src root, which are
// type-checked from source.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"divlab/internal/analysis"
)

// Run applies the analyzer to each fixture package and compares its
// diagnostics against the // want expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := newLoader(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, pkg := range pkgs {
		p, err := l.load(pkg)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", pkg, err)
		}
		if len(p.TypeErrors) > 0 {
			t.Fatalf("analysistest: %s: type error: %v", pkg, p.TypeErrors[0])
		}
		diags, err := analysis.RunOne(a, p)
		if err != nil {
			t.Fatalf("analysistest: %s: %s: %v", pkg, a.Name, err)
		}
		check(t, l.fset, p.Files, diags)
	}
}

// loader type-checks fixture packages against export data for real imports
// and from source for sibling fixture packages.
type loader struct {
	srcRoot string
	fset    *token.FileSet
	exports types.Importer
	cache   map[string]*analysis.Package
}

func newLoader(testdata string) (*loader, error) {
	abs, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		return nil, err
	}
	l := &loader{srcRoot: abs, fset: token.NewFileSet(), cache: map[string]*analysis.Package{}}

	// Gather every external import mentioned by any fixture file so one
	// `go list -export -deps` call resolves them all.
	external := map[string]bool{}
	err = filepath.Walk(abs, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "" && !l.isFixture(p) {
				external[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	patterns := make([]string, 0, len(external))
	for p := range external {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	exports := map[string]string{}
	if len(patterns) > 0 {
		// Resolve from the module root so divlab/... paths work regardless
		// of which package's test invoked us.
		if exports, err = analysis.ListExports(".", patterns...); err != nil {
			return nil, err
		}
	}
	l.exports = analysis.ExportImporter(l.fset, exports)
	return l, nil
}

func (l *loader) isFixture(path string) bool {
	fi, err := os.Stat(filepath.Join(l.srcRoot, path))
	return err == nil && fi.IsDir()
}

// Import implements types.Importer over the fixture/export split.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.isFixture(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: %v", path, p.TypeErrors[0])
		}
		return p.Pkg, nil
	}
	return l.exports.Import(path)
}

// load parses and type-checks one fixture package.
func (l *loader) load(path string) (*analysis.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p := &analysis.Package{ImportPath: path, Dir: dir, Fset: l.fset, Files: files, TypesInfo: analysis.NewInfo()}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Pkg, _ = conf.Check(path, l.fset, files, p.TypesInfo)
	l.cache[path] = p
	return p, nil
}

// ---------------------------------------------------------------------------
// Expectation matching.

var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one // want regexp on one line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if len(text) < 8 || text[:8] != "// want " {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quoted.FindAllString(text[8:], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}
