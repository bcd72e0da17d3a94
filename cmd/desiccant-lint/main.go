// Command desiccant-lint runs the determinism-guard analyzers
// (simtime, maporder, rawgo, rngshare, plus the cross-package
// dataflow checks unitcheck and allocfree — see internal/lint) over
// the desiccant module. Cross-package facts (unit signatures and
// allocfree markers) flow in-memory in standalone mode and through the
// vet .vetx files under go vet. It works two ways:
//
// Standalone, on package patterns:
//
//	desiccant-lint ./...
//
// As a go vet tool, which adds vet's per-package caching and test-file
// coverage:
//
//	go build -o bin/desiccant-lint ./cmd/desiccant-lint
//	go vet -vettool=$PWD/bin/desiccant-lint ./...
//
// Exit status: 0 clean, 1 usage or load error, 2 findings.
//
// Findings are suppressed case by case with a "//lint:allow <name>"
// annotation on (or directly above) the offending line.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"desiccant/internal/lint"
	"desiccant/internal/lint/driver"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("desiccant-lint", flag.ExitOnError)
	fs.Usage = usage
	fs.Var(versionFlag{}, "V", "print version and exit (vet protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON and exit (vet protocol)")
	jsonOut := fs.Bool("json", false, "emit JSON output")
	fs.Parse(os.Args[1:])

	if *printFlags {
		driver.VetFlags(os.Stdout)
		return 0
	}
	args := fs.Args()
	// The go command drives a vettool with a single *.cfg argument per
	// package; anything else is a standalone invocation.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return driver.RunVet(args[0], lint.All(), *jsonOut)
	}
	diags, err := driver.Standalone(".", args, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "desiccant-lint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "desiccant-lint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: desiccant-lint [packages]
       go vet -vettool=$PWD/bin/desiccant-lint [packages]

Determinism-guard analyzers for the desiccant simulation:

`)
	for _, a := range lint.All() {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", a.Name, a.Doc)
	}
}

// versionFlag implements the vet tool version protocol: the go command
// invokes the tool with -V=full and caches vet results against the
// printed line, which must therefore identify this binary's contents.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", os.Args[0], string(h.Sum(nil)[:24]))
	os.Exit(0)
	return nil
}
