//go:build !race

package wire_test

import (
	"io"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

// Allocation budgets of the stream codec on the two frames every
// invocation is made of. They are upper bounds on a warm Encoder/Decoder;
// the race detector allocates on its own, hence the build tag.

// hotFrames returns the two frames every invocation is made of, from the
// codec benchmarks' cases.
func hotFrames(t *testing.T) (submit, reply wire.Message) {
	t.Helper()
	for _, tc := range benchCases() {
		switch tc.name {
		case "Submit":
			submit = tc.msg
		case "Reply":
			reply = tc.msg
		}
	}
	if submit.Payload == nil || reply.Payload == nil {
		t.Fatal("benchCases lost its Submit or Reply case")
	}
	return submit, reply
}

func TestDecodeAllocationBudget(t *testing.T) {
	submit, reply := hotFrames(t)
	for _, tc := range []struct {
		name   string
		msg    wire.Message
		budget float64
	}{
		// Submit id, logical thread id, args, and the Request and Submit
		// boxed into their interfaces.
		{"Submit{Request}", submit, 6},
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
	submit, reply := hotFrames(t)
	for _, m := range []wire.Message{submit, reply} {
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
