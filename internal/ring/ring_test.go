package ring

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a queue and a plain slice with the same
// random pushes and pops, across several growths and wrap-arounds.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		if rng.Intn(100) < 55 {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			got, ok := q.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: Pop ok=%v with %d modelled elements", step, ok, len(model))
			}
			if ok {
				if got != model[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
				}
				model = model[1:]
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if n := len(model); n > 0 && (*q.At(0) != model[0] || *q.At(n - 1) != model[n-1]) {
			t.Fatalf("step %d: At(0), At(%d) = %d, %d, want %d, %d", step, n-1, *q.At(0), *q.At(n - 1), model[0], model[n-1])
		}
	}
	i := 0
	for v := range q.All() {
		if v != model[i] {
			t.Fatalf("All: element %d = %d, want %d", i, v, model[i])
		}
		i++
	}
	if i != len(model) {
		t.Fatalf("All visited %d elements, want %d", i, len(model))
	}
}

// TestPopReleasesSlot: the queue must not keep a popped element reachable.
func TestPopReleasesSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("slot %d still holds a popped element", i)
		}
	}
}

// TestAllToleratesMutation: a loop body may push and pop; the iteration
// then walks the positions of the queue as it finds them.
func TestAllToleratesMutation(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ { // exactly full: the first push inside grows it
		q.Push(i)
	}
	var seen []int
	for v := range q.All() {
		seen = append(seen, v)
		if v < 3 {
			q.Push(100 + v)
		}
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102}
	if len(seen) != len(want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("visited %v, want %v", seen, want)
		}
	}
}

// TestSteadyStateDoesNotAllocate is the property the type exists for.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var q Queue[[4]uint64]
	for i := 0; i < 3; i++ {
		q.Push([4]uint64{})
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push([4]uint64{1})
		q.Pop()
	}); n != 0 {
		t.Errorf("push+pop on a warm queue: %v allocs, want 0", n)
	}
}
