//go:build !race

package schedtest

import "testing"

// TestSubmitAllocationBudget pins what a scheduler allocates from Submit to
// the start of Exec: nothing. A thread-per-request scheduler takes the
// request's thread record (its own state, the Thread and its parker, the
// request's Exec, in one object) from its free list, and a pooled worker
// runs it; a single-class ticket keeps its lane plan inside. SEQ's worker
// runs the request off a ring. One object on MAT and CC while every request
// had a record of its own, two on MAT and three on CC while each thread had
// a goroutine of its own (its closure; CC's lane plan too), six before the
// thread became one record. The race detector allocates on its own, hence
// the build tag.
func TestSubmitAllocationBudget(t *testing.T) {
	for _, k := range submitKinds {
		t.Run(k.name, func(t *testing.T) {
			const budget = 0
			submit := submitter(t, k.mk)
			for i := 0; i < 200; i++ {
				submit()
			}
			allocs := testing.AllocsPerRun(2000, submit)
			t.Logf("Submit to Exec start: %v allocs (budget %v)", allocs, budget)
			if allocs > budget {
				t.Errorf("Submit to Exec start allocates %v times, budget %v", allocs, budget)
			}
		})
	}
}
