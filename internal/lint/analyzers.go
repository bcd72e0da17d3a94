package lint

// All returns the determinism-guard suite in reporting order: the
// generation-1 single-package analyzers first, then the generation-2
// dataflow analyzers that consume the facts layer.
func All() []*Analyzer {
	return []*Analyzer{SimTime, MapOrder, RawGo, RNGShare, UnitCheck, AllocFree}
}
