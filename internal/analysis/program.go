package analysis

import (
	"go/types"

	"divlab/internal/analysis/callgraph"
)

// Program is the whole-program view handed to flow-sensitive analyzers: the
// full set of loaded packages, a lazily built call graph over them, and a
// cache of program-wide facts so expensive derived data — the reachability
// sets isolation and hotalloc walk — is computed once per driver run, not
// once per (analyzer, package) pair.
//
// Every driver builds one Program per load: the pattern driver and the
// zero-findings regression test see the whole module, the analysistest
// harness sees one fixture package (plus export-data imports), and the
// `go vet -vettool` unitchecker sees a single package per invocation. The
// unitchecker view is therefore degraded for whole-program analyses: call
// edges into packages outside the unit are missing. cmd/divlint's pattern
// mode is the authoritative harness for those; see the isolation analyzer's
// package documentation.
type Program struct {
	Packages []*Package

	cg    *callgraph.Graph
	facts map[string]interface{}
}

// NewProgram wraps an already-loaded package set.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Packages: pkgs, facts: map[string]interface{}{}}
}

// Callgraph builds (once) and returns the static call graph over every
// loaded package.
func (p *Program) Callgraph() *callgraph.Graph {
	if p.cg == nil {
		srcs := make([]callgraph.Source, 0, len(p.Packages))
		for _, pkg := range p.Packages {
			srcs = append(srcs, callgraph.Source{Pkg: pkg.Pkg, Info: pkg.TypesInfo, Files: pkg.Files})
		}
		p.cg = callgraph.Build(srcs)
	}
	return p.cg
}

// Fact returns the cached program-wide value for key (an entry set, a
// reachability set), computing and caching it on first use. Drivers are
// single-threaded; there is no locking.
func (p *Program) Fact(key string, compute func() interface{}) interface{} {
	if v, ok := p.facts[key]; ok {
		return v
	}
	v := compute()
	p.facts[key] = v
	return v
}

// TypesPackage returns the loaded *types.Package for an import path, or nil
// when the path was not a load target (dependency-only packages resolve
// through export data and have no syntax here).
func (p *Program) TypesPackage(path string) *types.Package {
	for _, pkg := range p.Packages {
		if pkg.ImportPath == path {
			return pkg.Pkg
		}
	}
	return nil
}

// LookupInterface finds a named interface type by package path and name,
// searching loaded packages first and then the transitive imports of every
// loaded package (export data carries full type information, so interfaces
// from dependency-only packages resolve too). Returns nil when absent.
func (p *Program) LookupInterface(path, name string) *types.Interface {
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package) *types.Interface
	visit = func(tp *types.Package) *types.Interface {
		if tp == nil || seen[tp] {
			return nil
		}
		seen[tp] = true
		if tp.Path() == path {
			if obj, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range tp.Imports() {
			if iface := visit(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	for _, pkg := range p.Packages {
		if iface := visit(pkg.Pkg); iface != nil {
			return iface
		}
	}
	return nil
}
