package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// frame is the one-shot encoding of a message from "a" to "b" with payload.
func frame(t *testing.T, payload any) []byte {
	t.Helper()
	b, err := wire.AppendMessage(nil, &wire.Message{From: "a", To: "b", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// payloadStart is the offset of the payload inside a frame built by frame:
// one length byte (the frames here are short), the tag, "a", "b".
const payloadStart = 1 + 1 + 2 + 2

// TestEnvelopeFramesAreCanonical: every combination of optional groups
// round-trips and re-encodes to the same bytes, and each group costs
// nothing when absent.
func TestEnvelopeFramesAreCanonical(t *testing.T) {
	id := wire.InvocationID{Logical: "client/c#1", Seq: 2}
	var payloads []any
	for mask := 0; mask <= reqPresenceMask; mask++ {
		q := Request{ID: id, Group: "g", Method: "m", Args: []byte{1}, Kind: KindNested, ReplyTo: "client/c", Origin: "h"}
		if mask&reqHasTrace != 0 {
			q.Trace = tracing.Context{TraceID: 7, Span: 9}
		}
		if mask&reqHasShard != 0 {
			q.ShardKey = "k"
		}
		if mask&reqHasCall != 0 {
			q.Call = 1<<32 | 5 // the fifth call of a name's second bearer
		}
		payloads = append(payloads, q)
	}
	for mask := 0; mask <= repPresenceMask; mask++ {
		p := Reply{ID: id, From: "g/0", Result: []byte{4}}
		if mask&repHasOutcome != 0 {
			p.Code, p.Err = CodeRedirect, `shard: wrong shard (key "k" is homed on g@1)`
		}
		if mask&repHasTrace != 0 {
			p.Trace = tracing.Context{TraceID: 7, Span: 9}
		}
		payloads = append(payloads, p)
	}
	// Half-filled groups are present too.
	payloads = append(payloads,
		Request{ID: id, ShardKey: "k"},
		Reply{ID: id, Err: "app error"},
		Reply{ID: id, Code: CodeExpiredDuplicate},
		Reply{ID: id, Trace: tracing.Context{TraceID: 7}})
	for _, in := range payloads {
		bin := frame(t, in)
		out, n, clean, err := wire.ConsumeMessage(bin)
		if err != nil || n != len(bin) || !clean {
			t.Fatalf("%+v: decode: n=%d/%d clean=%v err=%v", in, n, len(bin), clean, err)
		}
		if !reflect.DeepEqual(out.Payload, in) {
			t.Errorf("round trip:\n in:  %+v\n out: %+v", in, out.Payload)
		}
		if re := frame(t, out.Payload); !bytes.Equal(re, bin) {
			t.Errorf("%+v: re-encoding differs:\n first:  %x\n second: %x", in, bin, re)
		}
		// The gob twin carries the same value.
		gobbed, err := wire.AppendMessageGob(nil, &wire.Message{From: "a", To: "b", Payload: in})
		if err != nil {
			t.Fatalf("%+v: gob encode: %v", in, err)
		}
		if twin, _, _, err := wire.ConsumeMessage(gobbed); err != nil || !reflect.DeepEqual(twin.Payload, in) {
			t.Errorf("gob twin:\n in:  %+v\n out: %+v (%v)", in, twin.Payload, err)
		}
	}
	// An unnumbered request pays nothing for the group; a numbered one its
	// varint.
	plain := Request{ID: id, Group: "g", Method: "m", ReplyTo: "client/c"}
	numbered := plain
	numbered.Call = 100
	if a, b := len(frame(t, plain)), len(frame(t, numbered)); b != a+1 {
		t.Errorf("call 100 costs %d bytes on the wire, want 1", b-a)
	}
}

// TestEnvelopeDecodersRejectNonCanonicalFrames: what reaches a decoder comes
// from outside the process. An undefined presence bit, a bit set over an
// empty group, a request kind or reply code outside its enum are all
// refused — none of them is a frame an encoder of this tree produces.
func TestEnvelopeDecodersRejectNonCanonicalFrames(t *testing.T) {
	id := wire.InvocationID{Logical: "l", Seq: 1}
	req := frame(t, Request{ID: id, Group: "g", Method: "m"})
	rep := frame(t, Reply{ID: id, From: "n"})
	// patch returns base with its presence byte replaced and tail appended;
	// the frame's length header is adjusted for the tail.
	patch := func(base []byte, presence byte, tail ...byte) []byte {
		out := append(append([]byte(nil), base...), tail...)
		out[0] += byte(len(tail))
		out[payloadStart] = presence
		return out
	}
	// kindAt is the offset of Request.Kind in req: presence, id ("l", 1),
	// group, method, empty args.
	const kindAt = payloadStart + 1 + 3 + 2 + 2 + 1
	badKind := append([]byte(nil), req...)
	badKind[kindAt] = byte(KindNested) + 1

	cases := []struct {
		name  string
		frame []byte
		want  string // in the error
	}{
		{"request: undefined presence bit", patch(req, reqPresenceMask+1), "undefined presence bit"},
		{"request: every bit set", patch(req, 0xff), "undefined presence bit"},
		{"request: trace bit, zero trace id", patch(req, reqHasTrace, 0, 5), "empty field group"},
		{"request: shard bit, empty key", patch(req, reqHasShard, 0), "empty field group"},
		{"request: call bit, call 0", patch(req, reqHasCall, 0), "empty field group"},
		{"request: call without its bit", patch(req, 0, 5), "trailing"},
		{"request: copies bit, empty set", patch(req, reqHasCopies, 0), "empty field group"},
		{"request: bit set, group missing", patch(req, reqHasShard), "varint"},
		{"request: unknown kind", badKind, "unknown request kind"},
		{"reply: undefined presence bit", patch(rep, repPresenceMask+1), "undefined presence bit"},
		{"reply: outcome bit, empty group", patch(rep, repHasOutcome, byte(CodeNone), 0), "empty field group"},
		{"reply: unknown code", patch(rep, repHasOutcome, byte(CodeExpiredDuplicate)+1, 1, 'e'), "unknown reply code"},
		{"reply: trace bit, zero trace id", patch(rep, repHasTrace, 0, 0), "empty field group"},
		{"reply: group without its bit", patch(rep, 0, 3), "trailing"},
	}
	for _, tc := range cases {
		m, _, _, err := wire.ConsumeMessage(tc.frame)
		if err == nil {
			t.Errorf("%s: decoded to %+v", tc.name, m.Payload)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %q, want mention of %q", tc.name, err, tc.want)
		}
	}
	// A length beyond the bytes left in the frame is refused before anything
	// is sized by it: a frame of a few bytes cannot make the decoder allocate
	// megabytes. (The args length sits just before the kind byte.)
	bigArgs := append(append(append([]byte(nil), req[:kindAt-1]...), binary.AppendUvarint(nil, 1<<24)...), req[kindAt:]...)
	bigArgs[0] += byte(len(bigArgs) - len(req))
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"request: args length beyond the frame", bigArgs},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, _, err := wire.ConsumeMessage(tc.frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", tc.name, m.Payload)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s: a %d-byte frame allocated %d bytes before it was refused (%v)", tc.name, len(tc.frame), n, err)
		}
	}
	// The patching itself is sound: well-formed groups do decode.
	for name, f := range map[string][]byte{
		"request shard group": patch(req, reqHasShard, 1, 'k'),
		"request call group":  patch(req, reqHasCall, 5),
		"reply outcome group": patch(rep, repHasOutcome, byte(CodeRedirect), 1, 'e'),
	} {
		if _, _, _, err := wire.ConsumeMessage(f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPerRequestValuesStayInTheirSizeClasses: a Reply is boxed into an
// interface on every send, and a dispatched is allocated whenever a
// replica's free list of them is empty (and up to 64 are kept); what was
// added to them (the code byte, the classes, the bound exec func) must not
// push either into the next allocation class.
func TestPerRequestValuesStayInTheirSizeClasses(t *testing.T) {
	if size := reflect.TypeOf(Reply{}).Size(); size > 112 {
		t.Errorf("Reply is %d bytes, want <= 112", size)
	}
	if size := reflect.TypeOf(dispatched{}).Size(); size > 288 {
		t.Errorf("dispatched is %d bytes, want <= 288", size)
	}
	// A Request is boxed into the submit's payload; with its call number it
	// exactly fills the class it was in.
	if size := unsafe.Sizeof(Request{}); size > 192 {
		t.Errorf("Request is %d bytes, want <= 192", size)
	}
	// A map keeps values of up to 128 bytes in its buckets and allocates
	// larger ones one by one: an at-most-once entry past that line costs
	// every unnumbered request an allocation; a client's row is allocated
	// once, in the 128-byte class.
	if size := unsafe.Sizeof(amoEntry{}); size > 112 {
		t.Errorf("amoEntry is %d bytes, want <= 112", size)
	}
	if size := unsafe.Sizeof(clientRow{}); size > 128 {
		t.Errorf("clientRow is %d bytes, want <= 128", size)
	}
	// The logical-thread record is held by value in its map, like amoEntry.
	if size := unsafe.Sizeof(logicalThread{}); size > 128 {
		t.Errorf("logicalThread is %d bytes, want <= 128", size)
	}
}

// TestFailureCarriesTheCode: the error an invoker gets keeps the reply's
// code through wrapping, and only a code makes IsExpiredDuplicate true.
func TestFailureCarriesTheCode(t *testing.T) {
	if err := (Reply{Result: []byte{1}}).Failure(); err != nil {
		t.Errorf("success reply failed: %v", err)
	}
	expired := Reply{Code: CodeExpiredDuplicate, Err: "replica: duplicate expired: reply evicted at stream position 9"}.Failure()
	if expired.Error() != "replica: duplicate expired: reply evicted at stream position 9" {
		t.Errorf("text = %q", expired)
	}
	if !IsExpiredDuplicate(expired) || !IsExpiredDuplicate(fmt.Errorf("nested hop: %w", expired)) {
		t.Error("code lost")
	}
	same := Reply{Err: expired.Error()}.Failure()
	if IsExpiredDuplicate(same) || IsExpiredDuplicate(errors.New(expired.Error())) || IsExpiredDuplicate(nil) {
		t.Error("text alone passes for the code")
	}
}
