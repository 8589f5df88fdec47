package lint

// All returns the full qpipe-lint analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RowLint,
		WALLint,
	}
}

// ByName resolves a comma-separated analyzer selection against the suite;
// unknown names return ok=false along with the offending name.
func ByName(names []string) (selected []*Analyzer, unknown string, ok bool) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		a, found := byName[n]
		if !found {
			return nil, n, false
		}
		selected = append(selected, a)
	}
	return selected, "", true
}
