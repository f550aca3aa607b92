// Package divlint assembles the project's analyzer suite and the scoping
// policy that decides which packages each contract applies to. cmd/divlint,
// the unitchecker mode, and the zero-findings regression test all go through
// this package so the policy cannot drift between harnesses.
package divlint

import (
	"divlab/internal/analysis"
	"divlab/internal/analysis/determinism"
	"divlab/internal/analysis/lineaddr"
	"divlab/internal/analysis/sinkerr"
	"divlab/internal/analysis/specstring"
)

// simPackages are the packages on the simulated path: everything here must
// be bit-deterministic, because the memoized run cache and the golden-file
// byte-identity guarantees assume equal inputs produce equal outputs.
var simPackages = map[string]bool{
	"divlab/internal/sim":         true,
	"divlab/internal/cpu":         true,
	"divlab/internal/mem":         true,
	"divlab/internal/cache":       true,
	"divlab/internal/dram":        true,
	"divlab/internal/tpc":         true,
	"divlab/internal/prefetchers": true,
	"divlab/internal/workloads":   true,
	"divlab/internal/exp":         true,
	"divlab/internal/obs":         true,
	"divlab/internal/metrics":     true,
	"divlab/internal/prefetch":    true,
	"divlab/internal/trace":       true,
	"divlab/internal/vmem":        true,
	"divlab/internal/bpred":       true,
	"divlab/internal/stats":       true,
}

// inSimScope reports whether the package is on the simulated path, where
// determinism and lineaddr apply.
func inSimScope(path string) bool { return simPackages[path] }

// everywhere applies an analyzer to every package, the analyzer suite
// included: the contract checks are cheap and self-hosting keeps us honest.
func everywhere(string) bool { return true }

// Suite returns the scoped analyzer suite in reporting order. Each analyzer
// guards a fault no test catches every time (README "Correctness
// contracts"): determinism the map-order faults no test pins or a golden
// catches only through map order, specstring constant specs in code no test
// runs, sinkerr output errors no test provokes, and lineaddr raw line
// arithmetic that computes today's value.
func Suite() []analysis.Scoped {
	return []analysis.Scoped{
		{Analyzer: determinism.Analyzer, Applies: inSimScope},
		{Analyzer: specstring.Analyzer, Applies: everywhere},
		{Analyzer: sinkerr.Analyzer, Applies: everywhere},
		{Analyzer: lineaddr.Analyzer, Applies: inSimScope},
	}
}

// Run loads the patterns and applies the suite.
func Run(dir string, patterns ...string) ([]analysis.Finding, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunAnalyzers(pkgs, Suite())
}

// Audit loads the patterns and reports stale lint:allow directives — ones
// that no longer suppress any finding of their named analyzer.
func Audit(dir string, patterns ...string) ([]analysis.StaleAllow, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.AuditAllows(pkgs, Suite())
}
