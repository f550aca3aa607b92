// Command divlint runs the project's static-analysis suite: the mechanical
// enforcement of the simulator's determinism, spec-string, sink-error and
// line-address contracts — four per-package analyzers (see
// internal/analysis/... and README "Correctness contracts").
//
//	divlint ./...                     lint the whole module
//	divlint ./internal/sim ./cmd/...  lint specific packages
//	divlint -json ./...               machine-readable findings on stdout
//	divlint -audit ./...              list stale //lint:allow directives
//	go vet -vettool=$(which divlint) ./...   run under the go command
//
// Exit status: 0 clean, 1 findings or load failure. Findings print as
// file:line:col: analyzer: message; with -json, as a JSON array of
// {file,line,col,analyzer,message} objects (an empty array when clean),
// which .github/problem-matchers/divlint.json cannot consume — the matcher
// reads the plain-text form, so CI runs without -json and pipes stdout.
// Suppress a finding with a justified directive on (or directly above) the
// offending line:
//
//	//lint:allow determinism -- wall-clock progress display, not simulation
//
// -audit inverts the suppression check: it runs the suite unsuppressed and
// reports every lint:allow directive whose analyzer no longer produces a
// finding on its covered lines. A stale allow is a hole a future regression
// walks through silently, so CI fails on them too (exit 1).
//
// Every analyzer looks at one package at a time, so this pattern driver and
// `go vet -vettool` report the same findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"divlab/internal/analysis"
	"divlab/internal/analysis/divlint"
)

const version = "v1.5.0"

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	args := os.Args[1:]
	// The go vet -vettool protocol: version probe, flag probe, or a vet.cfg.
	// Must be checked before our own flag parsing — vet passes flags divlint
	// does not define.
	if analysis.UnitcheckMain(args, divlint.Suite(), version) {
		return
	}

	fs := flag.NewFlagSet("divlint", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	audit := fs.Bool("audit", false, "report stale //lint:allow directives instead of findings")
	if err := fs.Parse(args); err != nil {
		os.Exit(2) // ExitOnError already printed usage; unreachable in practice
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *audit {
		stale, err := divlint.Audit(".", patterns...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "divlint:", err)
			os.Exit(1)
		}
		for _, s := range stale {
			fmt.Println(s)
		}
		if n := len(stale); n > 0 {
			fmt.Fprintf(os.Stderr, "divlint: %d stale allow(s)\n", n)
			os.Exit(1)
		}
		return
	}

	findings, err := divlint.Run(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divlint:", err)
		os.Exit(1)
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "divlint:", err)
			os.Exit(1)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "divlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
