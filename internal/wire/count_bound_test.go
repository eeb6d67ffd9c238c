//go:build !race

package wire_test

import (
	"runtime"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

// TotalAlloc counts every allocation of the process, and under the race
// detector it can grow by kilobytes across a window that allocates
// nothing, so the byte bounds below run in the plain lane only.

// TestCountsClaimOnlyWhatTheFrameHolds: a frame whose count claims more
// elements than follow it is refused, and decoding it allocates in
// proportion to the frame, not to the count. Every element takes more
// memory than frame bytes (a view member's one byte is a 16-byte id, a
// tail entry's seven a 96-byte Ordered), so room made for the count
// alone would be many times the frame.
func TestCountsClaimOnlyWhatTheFrameHolds(t *testing.T) {
	for name, frame := range claimingFrames(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, _, err := wire.ConsumeMessage(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*uint64(len(frame)) {
			t.Errorf("%s: a %d-byte frame allocated %d bytes (bound %d)", name, len(frame), grown, 4*len(frame))
		}
	}
}
