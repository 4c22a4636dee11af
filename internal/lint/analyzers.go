package lint

// All returns the full blendlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Berrcheck, Ctxflow, Lockguard, Poolcheck}
}

// ByName resolves a comma-separated analyzer selection (for the -only
// flag); unknown names return nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
