//go:build !race

package wire_test

import (
	"io"
	"testing"

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
	for _, tc := range benchCases() {
		switch tc.name {
		case "Submit":
			submit = tc.msg
		case "Ordered":
			ordered = tc.msg
		case "Hint":
			hint = tc.msg
		case "Reply":
			reply = tc.msg
		}
	}
	if submit.Payload == nil || ordered.Payload == nil || hint.Payload == nil || reply.Payload == nil {
		t.Fatal("benchCases lost its Submit, Ordered, Hint or Reply case")
	}
	return submit, ordered, hint, reply
}

func TestDecodeAllocationBudget(t *testing.T) {
	submit, ordered, hint, reply := hotFrames(t)
	for _, tc := range []struct {
		name   string
		msg    wire.Message
		budget float64
	}{
		// Args, and the nested Request boxed into its interface; the Submit
		// is decoded into the Decoder's cell, the logical thread's name is
		// interned (3 while it was a string, 4 while the Submit was boxed
		// too, 5 while the submit id was a string).
		{"Submit{Request}", submit, 2},
		// The same, the Ordered in its cell (3 with the thread's text, 4
		// while boxed, 5 before).
		{"Ordered{Request}", ordered, 2},
		// Nothing: the Hint is decoded into its cell (1 while boxed, 2
		// before).
		{"Hint", hint, 0},
		// The result; the Reply in its cell, its id interned (2 with the
		// thread's text, budget 4 while it was boxed, reading 3).
		{"Reply", reply, 1},
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
		decode() // warm: identifiers interned, frame buffer pooled
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
