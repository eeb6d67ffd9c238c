//go:build !race

package obs

import "testing"

// TestStreamRecordDoesNotAllocate: recording through a handle on a warm
// trace (the ring is full) costs no allocation, with a string detail or a
// number. The race detector allocates on its own, hence the build tag.
func TestStreamRecordDoesNotAllocate(t *testing.T) {
	tr := NewTrace(64)
	s := tr.Stream("order")
	for i := 0; i < 64; i++ {
		s.Record(KindExec, "c0#1", "")
	}
	n := uint64(1 << 40)
	if a := testing.AllocsPerRun(1000, func() { s.Record(KindGrant, "c0", "detail") }); a != 0 {
		t.Errorf("Record: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { n++; s.RecordN(KindExec, "c0#1", n) }); a != 0 {
		t.Errorf("RecordN: %v allocs, want 0", a)
	}
}
