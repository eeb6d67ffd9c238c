//go:build !race

package schedtest

import "testing"

// TestSubmitAllocationBudget pins what a scheduler allocates from Submit to
// the start of Exec. A thread-per-request scheduler pays for the thread
// record (its own state, the Thread and its parker in one object) and the
// goroutine's closure, ADETS-CC also for the lane plan; SEQ's worker runs
// the request off a ring. Six objects on MAT and CC before the thread
// became one record. The race detector allocates on its own, hence the
// build tag.
func TestSubmitAllocationBudget(t *testing.T) {
	for _, k := range submitKinds {
		t.Run(k.name, func(t *testing.T) {
			const budget = 3
			submit := submitter(t, k.mk)
			for i := 0; i < 200; i++ {
				submit()
			}
			allocs := testing.AllocsPerRun(2000, submit)
			t.Logf("Submit to Exec start: %v allocs (budget %d)", allocs, budget)
			if allocs > budget {
				t.Errorf("Submit to Exec start allocates %v times, budget %d", allocs, budget)
			}
		})
	}
}
