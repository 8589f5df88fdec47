// Command qpipe-lint runs the qpipe engine-invariant analyzer suite
// (internal/lint) over Go packages resolved through the go tool, type-checking
// the whole module from source:
//
//	qpipe-lint ./...
//	qpipe-lint -analyzers rowlint,walint ./internal/ops/
//
// Exit status: 0 for a clean run, 1 for usage or infrastructure errors,
// 2 when diagnostics were reported (the go vet convention).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qpipe/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qpipe-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list the analyzers in the suite and exit")
		analyzers = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: qpipe-lint [-list] [-analyzers a,b] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	suite := lint.All()
	if *analyzers != "" {
		selected, unknown, ok := lint.ByName(strings.Split(*analyzers, ","))
		if !ok {
			var known []string
			for _, a := range suite {
				known = append(known, a.Name)
			}
			fmt.Fprintf(stderr, "qpipe-lint: unknown analyzer %q (known: %s)\n", unknown, strings.Join(known, ", "))
			return 1
		}
		suite = selected
	}

	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "qpipe-lint: %v\n", err)
		return 1
	}
	diags, err := lint.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "qpipe-lint: %v\n", err)
		return 1
	}
	diags = lint.ApplyDirectives(pkgs, diags, suite)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
