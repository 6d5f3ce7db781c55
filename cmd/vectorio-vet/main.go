// Command vectorio-vet is the multichecker for the repository's
// determinism and safety invariants: it loads and type-checks the
// packages matching its arguments and runs the internal/analysis suite
// (wallclock, maporder, errwrap) over them. Two former checks are not
// static any more: a modelled cost that never reaches the virtual clock
// fails the clock golden tests, which pin each rank's per-kind ledger
// (simtime.Kind) and so name the dropped charge's layer; and ranks that
// disagree on their collectives fail at run time, where internal/mpi
// matches every collective across ranks (a CollectiveMismatchError).
//
// Usage:
//
//	vectorio-vet [-list] [-json] [packages]
//
// Patterns follow the go tool ("./...", "./internal/core",
// "repro/internal/..."); the default is ./... from the enclosing module
// root. Exit status: 0 clean, 1 findings, 2 the check itself failed
// (pattern, parse, or type error).
//
// With -json each finding is one JSON object per line on stdout
// (file/line/column/analyzer/message), in the same deterministic order
// as the plain output — machine-readable for CI annotation.
//
// Every finding is suppressible in place with a reasoned annotation:
//
//	//vet:allow <analyzer> — <reason>
//
// on the flagged line or the line above. See internal/analysis/README.md
// for the invariant catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is the -json wire form of one diagnostic: flat, stable field
// names, one object per line.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vectorio-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	jsonOut := fs.Bool("json", false, "emit findings as one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "vectorio-vet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "vectorio-vet:", err)
		return 2
	}
	diags, err := analysis.CheckModule(root, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "vectorio-vet:", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range diags {
			if err := enc.Encode(finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintln(stderr, "vectorio-vet:", err)
				return 2
			}
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vectorio-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
