package lint

import "testing"

// Each analyzer runs over its testdata package(s); want comments in the
// sources define the expected diagnostics (firing cases), and the clean
// functions assert the absence of false positives.

func TestRowLint(t *testing.T) {
	RunTest(t, "testdata", RowLint, "rowlint")
}

// TestWALLint loads the heap stand-in plus both halves of the contract:
// the sm package (mutators legal only in apply functions) and an outside
// package (mutators never legal).
func TestWALLint(t *testing.T) {
	RunTest(t, "testdata", WALLint, "heap", "sm", "walint")
}
