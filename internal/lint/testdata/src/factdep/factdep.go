// Package factdep exports annotated declarations whose facts must
// cross the package boundary: an allocfree helper and unit-annotated
// signatures and fields. The factuse fixture consumes them.
package factdep

// Step is allocfree; annotated importers may call it.
//
//lint:allocfree
func Step(x int64) int64 { return x + 1 }

// NotFree is deliberately unannotated.
func NotFree(x int64) int64 { return x + 1 }

// Fill takes a byte count.
//
//lint:unit n=bytes
func Fill(n int64) int64 { return n }

// Extent is a byte-addressed range with an annotated field.
type Extent struct {
	Len int64 //lint:unit bytes
}
