//go:build !race

package wire_test

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// Allocation budgets of the stream codec on the frames every invocation is
// made of. They are upper bounds on a warm Decoder (its payload cells made,
// identifiers interned) and burst buffer; the race detector allocates on
// its own, hence the build tag.

// hotFrames returns the frames every invocation is made of, from the codec
// benchmarks' cases.
func hotFrames(t *testing.T) (submit, ordered, hint, reply wire.Message) {
	t.Helper()
	submit, ordered, hint, reply = hotFrame(t, "Submit"), hotFrame(t, "Ordered"), hotFrame(t, "Hint"), hotFrame(t, "Reply")
	return submit, ordered, hint, reply
}

// hotFrame returns the codec benchmarks' case of that name.
func hotFrame(t *testing.T, name string) wire.Message {
	t.Helper()
	for _, tc := range benchCases() {
		if tc.name == name {
			return tc.msg
		}
	}
	t.Fatalf("benchCases lost its %s case", name)
	return wire.Message{}
}

func TestDecodeAllocationBudget(t *testing.T) {
	submit, ordered, hint, reply := hotFrames(t)
	for _, tc := range []struct {
		name   string
		msg    wire.Message
		budget float64
	}{
		// Nothing: the Submit is decoded into the Decoder's cell, the
		// nested Request and its Args are carved from the stream's slab
		// (chunks of 51 Requests and of 4 KiB of bytes, once warm),
		// the logical thread's name is interned (2 while the Request was
		// boxed and its Args copied, 3 while the name was a string, 4
		// while the Submit was boxed too, 5 while the submit id was a
		// string).
		{"Submit{Request}", submit, 0},
		// The same, the Ordered in its cell (2 while boxed and copied, 3
		// with the thread's text, 4 while the Ordered was boxed, 5 before).
		{"Ordered{Request}", ordered, 0},
		// One, the Ordered's id: a nested call's reply is ordered under a
		// named id, text unique per message and so not interned. The Reply
		// and its Result are carved like a Request and its Args (3 while
		// boxed and copied).
		{"Ordered{Reply}", hotFrame(t, "NestedReply"), 1},
		// Nothing: the Hint is decoded into its cell (1 while boxed, 2
		// before).
		{"Hint", hint, 0},
		// Nothing: the Reply in its cell, its id interned, its result lent
		// from the frame (1 while the result was copied, 2 with the thread's
		// text, budget 4 while it was boxed, reading 3).
		{"Reply", reply, 0},
	} {
		frame, err := wire.AppendMessage(nil, &tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDecoder(&replay{frame: frame})
		var m wire.Message
		decode := func() {
			if err := dec.Decode(&m); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm: identifiers interned, payload cell made
		n := testing.AllocsPerRun(1000, decode)
		t.Logf("Decode %s: %v allocs (budget %v)", tc.name, n, tc.budget)
		if n > tc.budget {
			t.Errorf("Decode %s: %v allocs, budget %v", tc.name, n, tc.budget)
		}
	}
}

// TestAppendMessageDoesNotAllocate holds the TCP send path's encode to
// zero allocations: frames appended into a reused pending buffer, written
// once it passes 64 KiB.
func TestAppendMessageDoesNotAllocate(t *testing.T) {
	submit, ordered, hint, reply := hotFrames(t)
	for _, m := range []wire.Message{submit, ordered, hint, reply} {
		burst := make([]byte, 0, 128<<10)
		encode := func() {
			var err error
			if burst, err = wire.AppendMessage(burst, &m); err != nil {
				t.Fatal(err)
			}
			if len(burst) >= 64<<10 {
				if _, err := io.Discard.Write(burst); err != nil {
					t.Fatal(err)
				}
				burst = burst[:0]
			}
		}
		encode()
		if n := testing.AllocsPerRun(1000, encode); n != 0 {
			t.Errorf("AppendMessage %T: %v allocs, want 0", m.Payload, n)
		}
	}
}

// TestTagZeroRefusalsAllocateInProportion: refusing a tag-0 frame (see
// TestTagZeroFramesRefused) allocates at most four times the frame, in
// ConsumeMessage and in one Decode on a warm Decoder. One refusal is
// measured: the least of ten was taken while the Decoder's frame buffer
// came from a pool that could miss.
func TestTagZeroRefusalsAllocateInProportion(t *testing.T) {
	for name, frame := range tagZeroFrames(t) {
		bound := 4 * uint64(len(frame))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := wire.ConsumeMessage(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: ConsumeMessage accepted tag 0", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > bound {
			t.Errorf("%s: ConsumeMessage of a %d-byte frame allocated %d bytes (bound %d)", name, len(frame), grown, bound)
		}
		dec := afterGoodFrame(t, frame)
		var m wire.Message
		runtime.ReadMemStats(&before)
		err = dec.Decode(&m)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Decode accepted tag 0", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > bound {
			t.Errorf("%s: Decode of a %d-byte frame allocated %d bytes (bound %d)", name, len(frame), grown, bound)
		}
	}
}

// TestDecodeAfterALargerFrameAllocatesNothing: a Decoder decodes a frame
// where its buffered reader holds it, so a small frame read right after a
// larger one costs no frame buffer. Until the Decoder did so it took one
// from a process-wide pool for every frame, and a miss cost 4 KiB.
func TestDecodeAfterALargerFrameAllocatesNothing(t *testing.T) {
	small := wire.Message{From: "accounts/0", To: "accounts/1", Payload: &gcs.Hint{Group: "accounts", Origin: "client/clerk-7", Call: 7, Seq: 41}}
	large := wire.Message{From: "g/0", To: "client/c1", Payload: &replica.Reply{
		ID: wire.InvocationID{Logical: "client/c1", Call: 7}, From: "g/0", Result: bytes.Repeat([]byte{7}, 504)}}
	smallFrame, err := wire.AppendMessage(nil, &small)
	if err != nil {
		t.Fatal(err)
	}
	largeFrame, err := wire.AppendMessage(nil, &large)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a %d-byte frame after a %d-byte one", len(smallFrame), len(largeFrame))
	var stream []byte
	for range 2 { // the first pass makes the cells and interns the names
		stream = append(append(stream, smallFrame...), largeFrame...)
	}
	stream = append(stream, smallFrame...)
	dec := wire.NewDecoder(bytes.NewReader(stream))
	var m wire.Message
	for range 4 {
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = dec.Decode(&m)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown != 0 {
		t.Errorf("Decode of a %d-byte frame after a %d-byte one allocated %d bytes, want 0", len(smallFrame), len(largeFrame), grown)
	}
	if !reflect.DeepEqual(value(m), value(small)) {
		t.Errorf("decoded %+v, want %+v", value(m), value(small))
	}
}
