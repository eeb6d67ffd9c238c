package wire_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"github.com/replobj/replobj/internal/adets/lsa"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/wire"
)

// claimFiller is how many bytes follow a forged count: every one 0xff, so
// the first element already fails to decode (a varint that never ends).
const claimFiller = 2048

// claimingFrames returns, for each element slice a frame carries, frames
// whose count claims more elements than decode: as many as the filler
// after the count could hold at the element's least encoded size, and one
// per filler byte (every element one byte, the most the reader took
// before). base is a message whose encoding ends with that slice's count
// (zero) and cut bytes of fields after it, which the forged count and the
// filler replace.
func claimingFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	sites := []struct {
		name  string
		base  any
		cut   int // the zero count and the fields after it
		least int // the element's least encoded size
	}{
		{"view member", gcs.Propose{Group: "g", From: "g/1", View: gcs.View{Epoch: 3}}, 1, 1},
		{"sync tail", gcs.SyncResp{Group: "g", From: "g/2", Epoch: 3}, 4, 7},
		{"sync pending", gcs.SyncResp{Group: "g", From: "g/2", Epoch: 3}, 3, 4},
		{"table entry", lsa.TableUpdate{From: "g/0"}, 1, 2},
	}
	frames := make(map[string][]byte)
	for _, s := range sites {
		m := wire.Message{From: "g/0", To: "g/1", Payload: s.base}
		frame, err := wire.AppendMessage(nil, &m)
		if err != nil {
			tb.Fatal(err)
		}
		_, n := binary.Uvarint(frame)
		body := frame[n:]
		if !bytes.Equal(body[len(body)-s.cut:], make([]byte, s.cut)) {
			tb.Fatalf("%s: the base does not end in %d zero bytes: %x", s.name, s.cut, body)
		}
		for _, count := range []int{claimFiller / s.least, claimFiller} {
			forged := binary.AppendUvarint(bytes.Clone(body[:len(body)-s.cut]), uint64(count))
			forged = append(forged, bytes.Repeat([]byte{0xff}, claimFiller)...)
			frames[fmt.Sprintf("%s, %d claimed", s.name, count)] = append(binary.AppendUvarint(nil, uint64(len(forged))), forged...)
		}
	}
	return frames
}

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
