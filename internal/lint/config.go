package lint

import (
	"path/filepath"
	"strings"
)

// This file is the suite's declarative configuration: the tables a new
// subsystem edits instead of analyzer source. Admitting a file to raw
// concurrency is a data edit with a written justification, not a code
// change buried in a Run function.

// A ConcurrencySanction names one file allowed to use raw concurrency
// primitives (go statements, sync.WaitGroup), with the determinism
// argument that earns the exemption. Matching is by slash-separated
// path suffix so the table works from any checkout root.
type ConcurrencySanction struct {
	// PathSuffix identifies the file (e.g. "experiments/parallel.go").
	PathSuffix string
	// Reason records why raw concurrency is deterministic there. It is
	// documentation enforced by proximity: an empty reason fails the
	// suite's own tests.
	Reason string
}

// SanctionedConcurrency is the allowlist the rawgo analyzer consults.
// Add an entry — with its proof sketch — when a new parallel subsystem
// earns one; everything else routes through experiments.ForEach or
// annotates the single offending line.
var SanctionedConcurrency = []ConcurrencySanction{
	{
		PathSuffix: "experiments/parallel.go",
		Reason:     "deterministic worker pool: every task writes its own index-ordered result slot, collection is sequential (DESIGN §2)",
	},
}

// concurrencySanctioned reports whether a filename is covered by the
// table.
func concurrencySanctioned(filename string) bool {
	name := filepath.ToSlash(filename)
	for _, s := range SanctionedConcurrency {
		if strings.HasSuffix(name, s.PathSuffix) {
			return true
		}
	}
	return false
}
