package crashtest

import (
	"fmt"
	"testing"
)

// TestCrashPointMatrix runs the full crash matrix: every named WAL crash
// site × every post-crash disk image × three seeds (which occurrence of the
// site is the kill, and which prefix keep-prefix keeps). Each cell simulates
// a kill exactly at that site, recovers, and requires the recovered state
// to be exactly the committed prefix (the in-flight transaction
// all-or-nothing) at the acknowledged RIDs.
func TestCrashPointMatrix(t *testing.T) {
	for _, site := range Sites {
		for _, mode := range Modes {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/%d", site, mode, seed), func(t *testing.T) {
					Run(t, site, mode, seed)
				})
			}
		}
	}
}
