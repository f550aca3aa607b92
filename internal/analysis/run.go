package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Scoped pairs an analyzer with the set of packages it applies to. A nil
// Applies runs the analyzer on every package.
type Scoped struct {
	Analyzer *Analyzer
	// Applies filters by import path ("divlab/internal/sim"). Fixture
	// harnesses bypass it: scoping is driver policy, not analyzer logic.
	Applies func(importPath string) bool
}

// Finding is one resolved diagnostic with its file position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies each scoped analyzer to each package, honoring
// lint:allow suppressions, and returns findings sorted by position. Type
// errors in any package abort the run: analyzers need sound type info.
func RunAnalyzers(pkgs []*Package, analyzers []Scoped) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: type checking failed: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		for _, sc := range analyzers {
			if sc.Applies != nil && !sc.Applies(pkg.ImportPath) {
				continue
			}
			diags, err := RunOne(sc.Analyzer, pkg)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, sc.Analyzer.Name, err)
			}
			for _, d := range diags {
				out = append(out, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: d.Category, Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// RunOne applies a single analyzer to a single package and returns the
// surviving (non-suppressed) diagnostics.
func RunOne(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, err := runRaw(a, pkg)
	if err != nil {
		return nil, err
	}
	kept := diags[:0]
	for _, d := range diags {
		if !allowed(pkg.Fset, pkg.Files, d.Category, d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// runRaw applies one analyzer to one package with no suppression filtering —
// the allow audit needs the full diagnostic set to decide which directives
// still earn their keep.
func runRaw(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.TypesInfo,
		Report: func(d Diagnostic) {
			d.Category = a.Name
			diags = append(diags, d)
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	return diags, nil
}

// StaleAllow is one lint:allow directive (per analyzer name) that suppresses
// no diagnostic.
type StaleAllow struct {
	Pos      token.Position // the directive's own position
	Analyzer string
}

func (s StaleAllow) String() string {
	return fmt.Sprintf("%s: stale //lint:allow %s: suppresses no finding", s.Pos, s.Analyzer)
}

// AuditAllows runs the scoped suite without suppression and returns every
// allow directive whose analyzer produces no diagnostic on the directive's
// covered lines — including directives naming analyzers that do not apply to
// (or do not exist for) the package, which can never suppress anything.
func AuditAllows(pkgs []*Package, analyzers []Scoped) ([]StaleAllow, error) {
	var out []StaleAllow
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s: type checking failed: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		// Collect the raw diagnostic lines per analyzer per file.
		hits := map[string]map[string]map[int]bool{} // analyzer -> file -> line
		for _, sc := range analyzers {
			if sc.Applies != nil && !sc.Applies(pkg.ImportPath) {
				continue
			}
			diags, err := runRaw(sc.Analyzer, pkg)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, sc.Analyzer.Name, err)
			}
			name := sc.Analyzer.Name
			if hits[name] == nil {
				hits[name] = map[string]map[int]bool{}
			}
			for _, d := range diags {
				p := pkg.Fset.Position(d.Pos)
				if hits[name][p.Filename] == nil {
					hits[name][p.Filename] = map[int]bool{}
				}
				hits[name][p.Filename][p.Line] = true
			}
		}
		for _, f := range pkg.Files {
			for _, dir := range directivesForFile(pkg.Fset, f) {
				used := false
				for _, line := range dir.lines {
					if hits[dir.name][dir.pos.Filename][line] {
						used = true
					}
				}
				if !used {
					out = append(out, StaleAllow{Pos: dir.pos, Analyzer: dir.name})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
