// Package factuse consumes factdep's facts. Every want below fires
// only because PackageFacts flow across the package boundary — run
// without facts, the annotated import looks like any other call and
// the unit annotations are invisible.
package factuse

import "factdep"

// hot is allocfree: the annotated import is fine, the unannotated one
// is not.
//
//lint:allocfree
func hot(x int64) int64 {
	x = factdep.Step(x)
	return factdep.NotFree(x) // want `allocfree: calls factdep.NotFree, which is not marked //lint:allocfree in its package`
}

// mix passes a page count to factdep.Fill's bytes parameter.
func mix(residentPages int64) int64 {
	return factdep.Fill(residentPages) // want `unitcheck: passing pages to parameter "n" of Fill, which takes bytes`
}

// fieldMix mixes an imported annotated field with a page count.
func fieldMix(e factdep.Extent, residentPages int64) int64 {
	return e.Len + residentPages // want `unitcheck: mixing bytes and pages`
}
