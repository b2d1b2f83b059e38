// Command deepsketch-lint runs the project's static-analysis suite
// (internal/analysis) over the requested packages and reports every
// violated invariant: zero-allocation packed kernels, fsync-before-rename
// persistence, caller-owned contexts, mutex-guarded fields and methods,
// joined goroutines, an acyclic module-wide lock order, and handled
// durability errors. It exits non-zero if any diagnostic fires, so CI can
// gate on it. Run it locally with:
//
//	go run ./cmd/deepsketch-lint ./...
//
// See docs/static-analysis.md for each analyzer's invariant, the bug it
// is the only catcher of, and the annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deepsketch/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "deepsketch-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsketch-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsketch-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "deepsketch-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
