//go:build !race

package replica

import (
	"testing"

	"github.com/replobj/replobj/internal/vtime"
)

// TestDispatchRecordsKeptAcrossLags: a replica that has lagged by 200
// requests — 200 admitted and waiting in its scheduler at once, as on a
// follower behind the sequencer — keeps the 200 records it made once they
// drain, and lagging by 200 again takes those and allocates none. (A replica
// kept 64 until the records were kept without a cap: the rest were
// allocated again at every lag.) The race detector allocates on its own,
// hence the build tag.
func TestDispatchRecordsKeptAcrossLags(t *testing.T) {
	const lag = 200
	p := newReuseReplica()
	defer p.rt.Stop()
	freeSet := func() map[*dispatched]bool {
		p.rt.Lock()
		defer p.rt.Unlock()
		set := make(map[*dispatched]bool, len(p.r.free))
		for _, d := range p.r.free {
			set[d] = true
		}
		return set
	}
	seq := uint64(0)
	lagBy := func(round int) {
		for i := range lag {
			seq++
			p.r.dispatchRequest(p.clientRequest(round*1000+i, "wait", "x"), seq)
		}
		p.settle() // every request waits at the gate: lag records in use
		for range lag {
			p.gate.Put(struct{}{})
		}
		p.replies(t, p.cl, lag)
	}
	var allocs float64
	vtime.Run(p.rt, "main", func() {
		defer p.r.Stop()
		defer p.cl.Close()
		defer p.o.Close()
		lagBy(1)
		first := freeSet()
		if len(first) < lag {
			t.Errorf("after a lag of %d the replica keeps %d records", lag, len(first))
		}
		lagBy(2)
		again := freeSet()
		for d := range again {
			if !first[d] {
				t.Errorf("the second lag of %d allocated record %p", lag, d)
				break
			}
		}
		if len(again) != len(first) {
			t.Errorf("the replica keeps %d records after the second lag, %d after the first", len(again), len(first))
		}
		ds := make([]*dispatched, 0, lag)
		allocs = testing.AllocsPerRun(10, func() {
			p.rt.Lock()
			for range lag {
				ds = append(ds, p.r.takeLocked())
			}
			for _, d := range ds {
				p.r.releaseLocked(d)
			}
			ds = ds[:0]
			p.rt.Unlock()
		})
	})
	if allocs != 0 {
		t.Errorf("taking and releasing %d records after a lag of %d: %v allocs, want 0", lag, lag, allocs)
	}
}
