// Command efdvet runs the repo's custom static-analysis suite (see
// internal/analysis and LINTS.md) over the given package patterns and
// fails the build on unsuppressed findings.
//
// Usage:
//
//	efdvet [-json] [-list] [-api-golden] [patterns ...]
//
// Patterns are module-relative ("./...", "./internal/tsdb",
// "./efd/..."); the default is "./...". Output is one finding per
// line, sorted by (file, line, col, rule) across all packages so CI
// diffs of lint output are stable run-to-run:
//
//	file:line:col: [rule] message
//
// The deadcode rule judges reachability from every root of the
// module, so it runs only when the patterns cover the whole module
// ("./...", the default); a partial run skips it with a note on
// stderr.
//
// -api-golden regenerates the locked public-API surface goldens for
// the pinned packages (see the apilock rule in LINTS.md) instead of
// linting — the deliberate step after an intended API change.
//
// In text mode the driver also reports the call-graph construction
// cost on stderr, so regressions in analysis cost show up in `make
// lint` logs.
//
// Exit codes are distinct so CI failures are diagnosable at a glance:
//
//	0  the tree is clean (no unsuppressed findings)
//	1  findings (or stale/malformed //efdvet:ignore suppressions)
//	2  load failure — a package failed to parse or typecheck, so the
//	   analyzers did not run; "exit 1" always means real findings
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitLoadFail = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("efdvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	apiGolden := fs.Bool("api-golden", false, "regenerate the locked public-API goldens for the pinned packages and exit")
	if err := fs.Parse(args); err != nil {
		return exitLoadFail
	}
	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "efdvet: load error: %v\n", err)
		return exitLoadFail
	}
	patterns := fs.Args()
	if *apiGolden && len(patterns) == 0 {
		// Regeneration needs exactly the pinned packages; loading
		// them directly keeps it fast and independent of tree state
		// elsewhere.
		for _, rel := range analysis.APIPinnedPackages {
			patterns = append(patterns, "./"+rel)
		}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		// A load failure is not a lint verdict: the tree did not
		// typecheck (or a pattern matched nothing), so no analyzer
		// ran. Keep the message and the exit code distinct from
		// findings so CI logs answer "dirty or broken?" directly.
		var le *analysis.LoadError
		if errors.As(err, &le) {
			fmt.Fprintf(stderr, "efdvet: load error (analyzers did not run): %v\n", le)
		} else {
			fmt.Fprintf(stderr, "efdvet: load error (analyzers did not run): %v\n", err)
		}
		return exitLoadFail
	}
	if *apiGolden {
		written, err := analysis.WriteAPIGoldens(pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "efdvet: api-golden: %v\n", err)
			return exitLoadFail
		}
		for _, w := range written {
			fmt.Fprintf(stdout, "wrote %s\n", w)
		}
		return exitClean
	}
	mod := analysis.NewModule(pkgs)
	if !*jsonOut {
		// The call graph is the costly shared construction; its build
		// time in every `make lint` log makes analysis-cost
		// regressions visible the PR they land.
		g := mod.Graph()
		fmt.Fprintf(stderr, "efdvet: callgraph: %d nodes, %d edges, built in %s\n",
			g.NumNodes(), g.NumEdges(), g.BuildTime.Round(time.Millisecond))
	}
	// deadcode judges reachability from every root in the module, so
	// on a partial load it would report every function whose callers
	// were not loaded; it runs only over the whole module.
	analyzers := analysis.All
	if !wholeModule(patterns) {
		analyzers = nil
		for _, a := range analysis.All {
			if a != analysis.DeadCode {
				analyzers = append(analyzers, a)
			}
		}
		fmt.Fprintln(stderr, "efdvet: deadcode skipped: it needs the whole module (./...)")
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Suppress(pkg, mod.Run(pkg, analyzers))...)
	}
	relativize(diags)
	// One canonical order across packages: (file, line, col, rule) on
	// the paths as printed, so successive runs diff clean in CI.
	analysis.SortDiagnostics(diags)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "efdvet: %v\n", err)
			return exitLoadFail
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "efdvet: %d finding(s)\n", len(diags))
		}
		return exitFindings
	}
	return exitClean
}

// wholeModule reports whether the patterns load every package of the
// module.
func wholeModule(patterns []string) bool {
	for _, p := range patterns {
		if p == "./..." {
			return true
		}
	}
	return len(patterns) == 0
}

// relativize rewrites absolute file paths relative to the working
// directory when that shortens them — the form editors and CI logs
// link.
func relativize(diags []analysis.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].File); err == nil && len(rel) < len(diags[i].File) {
			diags[i].File = rel
		}
	}
}
