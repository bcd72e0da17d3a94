package lint

// All returns the determinism-guard suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{SimTime, MapOrder, RawGo, RNGShare}
}
