//go:build !race

package wire_test

import (
	"io"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

// Allocation budgets of the stream codec on the frames every invocation is
// made of. They are upper bounds on a warm Encoder/Decoder; the race
// detector allocates on its own, hence the build tag.

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
		// Logical thread id, args, and the Request and Submit boxed into
		// their interfaces. A client's call is named by number: no id text
		// (5 while the submit id was a string).
		{"Submit{Request}", submit, 4},
		// The same, the Ordered boxed (5 before).
		{"Ordered{Request}", ordered, 4},
		// The boxed Hint (2 before).
		{"Hint", hint, 1},
		// Logical thread id, result, and the boxed Reply.
		{"Reply", reply, 4},
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

func TestEncodeBufferedDoesNotAllocate(t *testing.T) {
	submit, ordered, hint, reply := hotFrames(t)
	for _, m := range []wire.Message{submit, ordered, hint, reply} {
		enc := wire.NewEncoder(io.Discard)
		encode := func() {
			if err := enc.EncodeBuffered(&m); err != nil {
				t.Fatal(err)
			}
			if enc.Buffered() > 64<<10 {
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		encode()
		if n := testing.AllocsPerRun(1000, encode); n != 0 {
			t.Errorf("EncodeBuffered %T: %v allocs, want 0", m.Payload, n)
		}
	}
}
