// Command desiccant-lint runs the determinism-guard analyzers
// (simtime, maporder, rawgo and rngshare — see internal/lint) over the
// packages matching its arguments, in the module containing the
// working directory:
//
//	desiccant-lint ./...
//
// With no arguments it checks ./... . Each package is checked on its
// own; dependencies are type-checked for their signatures only. The
// command takes no flags.
//
// Exit status: 0 clean, 1 usage or load error, 2 findings.
//
// Findings are suppressed case by case with a "//lint:allow <name>"
// annotation on (or directly above) the offending line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"desiccant/internal/lint"
	"desiccant/internal/lint/driver"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages matching args in the module containing dir,
// printing findings to stdout and errors to stderr, and returns the
// exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("desiccant-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	diags, err := driver.Standalone(dir, fs.Args(), lint.All())
	if err != nil {
		fmt.Fprintln(stderr, "desiccant-lint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "desiccant-lint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: desiccant-lint [packages]

Determinism-guard analyzers for the desiccant simulation:

`)
	for _, a := range lint.All() {
		fmt.Fprintf(w, "  %-9s %s\n", a.Name, a.Doc)
	}
}
