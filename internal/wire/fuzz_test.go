package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/lsa"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// exemplarMessages covers every protocol payload the middleware registers
// with the codec: gcs ordering and view-change traffic, replica
// request/reply envelopes with each of their optional field groups,
// scheduler timeout and LSA table messages. New exemplars go at the end:
// the checked-in corpus files are numbered by position, and those past the
// exemplars are frames an earlier build generated, kept as inputs. Frames
// an earlier build sent and this one refuses — migration chunks (tag 27), a
// request naming its direct-copy set, ids whose logical thread was text —
// are kept in retiredFrames too, so a regenerated corpus loses none of them.
func exemplarMessages() []wire.Message {
	view := gcs.View{Epoch: 3, Members: []wire.NodeID{"g/0", "g/1", "g/2"}}
	sub := gcs.Submit{Group: "g", ID: "inv-1", Origin: "client/c1",
		Payload: &replica.Request{
			ID:      wire.InvocationID{Logical: "client/c1", Call: 7},
			Group:   "g",
			Method:  "add",
			Args:    []byte{1, 2, 3},
			ReplyTo: "client/c1",
		}}
	return []wire.Message{
		{From: "client/c1", To: "g/0", Payload: sub},
		{From: "g/0", To: "g/1", Payload: gcs.Ordered{
			Group: "g", Epoch: 3, Seq: 41, ID: "inv-1", Origin: "client/c1",
			Payload: sub.Payload}},
		{From: "g/0", To: "g/1", Payload: gcs.Ordered{
			Group: "g", Epoch: 4, Seq: 42, ID: "viewevent/g/0/4", Origin: "g/0",
			View: &gcs.View{Epoch: 4, Members: view.Members[:2]}}},
		{From: "g/1", To: "g/0", Payload: gcs.Nack{Group: "g", From: "g/1", Want: 17}},
		{From: "g/2", To: "g/0", Payload: gcs.Heartbeat{Group: "g", From: "g/2", Epoch: 3, MaxSeq: 40}},
		{From: "g/1", To: "g/2", Payload: gcs.Propose{Group: "g", From: "g/1", View: view}},
		{From: "g/1", To: "g/2", Payload: gcs.SyncReq{Group: "g", From: "g/1", View: view}},
		{From: "g/2", To: "g/1", Payload: gcs.SyncResp{
			Group: "g", From: "g/2", Epoch: 3, Delivered: 40,
			Tail:    []gcs.Ordered{{Group: "g", Epoch: 3, Seq: 41, ID: "inv-1", Origin: "client/c1"}},
			Pending: []gcs.Submit{{Group: "g", ID: "inv-2", Origin: "client/c2"}}}},
		{From: "g/0", To: "client/c1", Payload: replica.Reply{
			ID: wire.InvocationID{Logical: "client/c1", Call: 7}, From: "g/0",
			Result: []byte{9}, Err: ""}},
		{From: "g/0", To: "g/1", Payload: adets.TimeoutMsg{
			Target: wire.ThreadID{Logical: "client/c1", Call: 7}, Mutex: "state", Cond: "ready", WaitSeq: 2}},
		{From: "g/0", To: "g/1", Payload: lsa.TableUpdate{
			From:    "g/0",
			Entries: []lsa.TableEntry{{M: "state", L: wire.ThreadID{Logical: "client/c1", Call: 7}}}}},
		// The envelopes' optional field groups, one at a time and all at
		// once: trace context and shard key on a request (a client's, and a
		// handler's InvokeShard); outcome and trace context on a reply.
		{From: "client/c1", To: "g/0", Payload: request(func(q *replica.Request) { q.Trace = trace })},
		{From: "client/c1", To: "kv@0/0", Payload: request(func(q *replica.Request) { q.ShardKey = "acct-4" })},
		{From: "kv@0/1", To: "kv@2/0", Payload: request(func(q *replica.Request) {
			q.Kind, q.ReplyTo, q.Origin, q.ShardKey = replica.KindNested, "", "kv@0", "acct-12"
		})},
		{From: "kv@0/1", To: "kv@2/0", Payload: request(func(q *replica.Request) {
			q.Kind, q.ReplyTo, q.Origin = replica.KindNested, "", "kv@0"
			q.Trace, q.ShardKey = trace, "acct-4"
		})},
		{From: "g/0", To: "client/c1", Payload: reply(func(p *replica.Reply) { p.Result, p.Err = nil, "insufficient funds on acct-4" })},
		{From: "g/0", To: "client/c1", Payload: reply(func(p *replica.Reply) { p.Trace = trace })},
		{From: "kv@0/0", To: "client/c1", Payload: reply(func(p *replica.Reply) {
			p.Result, p.Code, p.Err = nil, replica.CodeRedirect, `shard: wrong shard (key "acct-9" is homed on kv@1)`
		})},
		{From: "g/0", To: "client/c1", Payload: reply(func(p *replica.Reply) {
			p.Result, p.Code = nil, replica.CodeExpiredDuplicate
			p.Err = "replica: duplicate expired: reply evicted at stream position 41"
		})},
		{From: "kv@0/0", To: "client/c1", Payload: redirect},
		// The call number: of a nested call's thread, and beside every
		// other group (a name's second bearer: the incarnation sits above
		// bit 32).
		{From: "g/0", To: "h/0", Payload: request(func(q *replica.Request) {
			q.ID.Seq, q.Kind, q.ReplyTo, q.Origin = 7001, replica.KindNested, "", "g"
		})},
		{From: "client/c1", To: "kv@0/0", Payload: request(func(q *replica.Request) {
			q.Trace, q.ShardKey, q.ID.Call = trace, "acct-4", 1<<32|7
		})},
		// Message ids by number: a client's call is (origin, call) on the
		// Submit, the Ordered and the Hint, with no text; a named id keeps
		// its string, on a Hint too (the answer to a copy of an ordered
		// nested reply).
		{From: "client/c1", To: "g/0", Payload: gcs.Submit{Group: "g", Origin: "client/c1", Call: 7,
			Payload: ptr(request(func(*replica.Request) {}))}},
		{From: "g/0", To: "g/1", Payload: gcs.Ordered{Group: "g", Epoch: 3, Seq: 43, Origin: "client/c1", Call: 1<<32 | 7,
			Payload: ptr(request(func(q *replica.Request) { q.ID.Call = 1<<32 | 7 }))}},
		{From: "g/0", To: "g/1", Payload: gcs.Hint{Group: "g", Origin: "client/c1", Call: 7, Seq: 43}},
		{From: "g/0", To: "g/2", Payload: gcs.Hint{Group: "g", ID: "nested-reply/g/0#3#1", Seq: 44}},
		{From: "g/2", To: "g/1", Payload: gcs.SyncResp{
			Group: "g", From: "g/2", Epoch: 3, Delivered: 42,
			Tail:    []gcs.Ordered{{Group: "g", Epoch: 3, Seq: 43, Origin: "client/c1", Call: 7}},
			Pending: []gcs.Submit{{Group: "g", Origin: "client/c2", Call: 1}}}},
		// A checkpoint sent in place of a truncated tail.
		{From: "g/0", To: "g/2", Payload: gcs.Snapshot{Group: "g", Seq: 40, Data: []byte("image")}},
	}
}

var trace = tracing.Context{TraceID: 0x9e3779b97f4a7c15, Span: 77}

// redirect has every optional group of a reply set.
var redirect = reply(func(p *replica.Reply) {
	p.Result, p.Code, p.Trace = nil, replica.CodeRedirect, trace
	p.Err = `shard: wrong shard (key "acct-4" is homed on kv@2)`
})

// request and reply return the plain client envelopes, edited.
func request(edit func(*replica.Request)) replica.Request {
	q := replica.Request{
		ID:    wire.InvocationID{Logical: "client/c1", Call: 7},
		Group: "g", Method: "add", Args: []byte{1, 2, 3}, ReplyTo: "client/c1"}
	edit(&q)
	return q
}

func reply(edit func(*replica.Reply)) replica.Reply {
	p := replica.Reply{ID: wire.InvocationID{Logical: "client/c1", Call: 7}, From: "g/0", Result: []byte{9}}
	edit(&p)
	return p
}

// ptr returns a pointer to a copy of v: an exemplar nests its payload as a
// *T, the one form a nested payload has.
func ptr[T any](v T) *T { return &v }

// value returns m with its payload dereferenced: a decoded top-level
// payload is a *T, an exemplar's a T. A nested payload is a *T on both
// sides, and DeepEqual compares what the pointers hold.
func value(m wire.Message) wire.Message {
	if v := reflect.ValueOf(m.Payload); v.Kind() == reflect.Pointer && !v.IsNil() {
		m.Payload = v.Elem().Interface()
	}
	return m
}

// kept is value(m) for a message a stream Decoder lent, made to outlive
// the loan: a Reply's Result, which the decoder lends from the frame, is
// copied, as a receiver that keeps it must.
func kept(m wire.Message) wire.Message {
	m = value(m)
	if r, ok := m.Payload.(replica.Reply); ok {
		r.Result = bytes.Clone(r.Result)
		m.Payload = r
	}
	return m
}

// TestRoundTripAllMessageTypes: encode→decode preserves every registered
// protocol message bit for bit. The payload comes back as a *T, and the
// *T re-encodes to the frame it came from. A nested payload comes back as
// a *T too: the exemplars nest one, and DeepEqual holds the dynamic types
// equal and compares what the pointers hold.
func TestRoundTripAllMessageTypes(t *testing.T) {
	for _, in := range exemplarMessages() {
		frame, err := wire.AppendMessage(nil, &in)
		if err != nil {
			t.Fatalf("%T: AppendMessage: %v", in.Payload, err)
		}
		var out wire.Message
		if err := wire.NewDecoder(bytes.NewReader(frame)).Decode(&out); err != nil {
			t.Fatalf("%T: Decode: %v", in.Payload, err)
		}
		if want := reflect.PointerTo(reflect.TypeOf(in.Payload)); reflect.TypeOf(out.Payload) != want {
			t.Errorf("%T: decoded payload is a %T, want a %v", in.Payload, out.Payload, want)
		}
		if got := value(out); !reflect.DeepEqual(in, got) {
			t.Errorf("%T: round trip mismatch:\n in:  %+v\n out: %+v", in.Payload, in, got)
		}
		if re, err := wire.AppendMessage(nil, &out); err != nil || !bytes.Equal(re, frame) {
			t.Errorf("%T: the decoded message re-encodes to %x (%v), want %x", in.Payload, re, err, frame)
		}
	}
}

// readFrames returns the want frames written back to back in
// testdata/name:
//   - exemplars.frames: the golden frame of each exemplarMessages() entry,
//     in order (TestGenerateFuzzCorpus writes it).
//   - retired-migrate-chunks.frames: four messages that carried a migration
//     chunk (tag 27) when live resharding still existed.
//   - retired-request-copies.frames: a client's Submit and the sequencer's
//     Ordered whose Request named the direct-copy set (the request frame's
//     fourth presence bit) when speculation still existed.
//   - retired-text-ids.frames: the 20 messages of the corpus that carried a
//     logical thread id as text, "<client>#<call>" — requests, replies,
//     the Submits and Ordereds around them, a timeout and an LSA table
//     update — before an id named its thread by (client, call).
//
// The retired-*.frames files hold what an earlier build sent and this one
// refuses, each message as its binary frame followed by its gob twin (tag
// 0, the second format the codec had then, refused now too).
func readFrames(tb testing.TB, name string, want int) [][]byte {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	for len(data) > 0 {
		size, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < size {
			tb.Fatalf("%s: bad frame header after %d frames", name, len(frames))
		}
		frames = append(frames, data[:n+int(size)])
		data = data[n+int(size):]
	}
	if len(frames) != want {
		tb.Fatalf("%s: %d frames, want %d", name, len(frames), want)
	}
	return frames
}

// TestRetiredMigrationFramesRefused: a frame carrying a migration chunk, a
// payload this build no longer registers, and its gob twin are errors on
// the one-shot parser and on the stream decoder, never a panic or a
// misread payload.
func TestRetiredMigrationFramesRefused(t *testing.T) {
	for i, frame := range readFrames(t, "retired-migrate-chunks.frames", 8) {
		if m, _, _, err := wire.ConsumeMessage(frame); err == nil {
			t.Errorf("frame %d: ConsumeMessage accepted a retired payload: %+v", i, m)
		}
		var m wire.Message
		if err := wire.NewDecoder(bytes.NewReader(frame)).Decode(&m); err == nil || err == io.EOF {
			t.Errorf("frame %d: Decode of a retired payload: %v, want a refusal", i, err)
		}
	}
}

// TestRetiredTextIDFramesRefused: a frame whose ids name their logical
// thread by text, as builds before the (client, call) form sent them, is
// refused by both decoders, never misread as an id of the new form, and so
// is its gob twin.
func TestRetiredTextIDFramesRefused(t *testing.T) {
	for i, frame := range readFrames(t, "retired-text-ids.frames", 40) {
		if m, _, _, err := wire.ConsumeMessage(frame); err == nil {
			t.Errorf("frame %d: ConsumeMessage accepted an id in text form: %+v", i, value(m))
		}
		var m wire.Message
		if err := wire.NewDecoder(bytes.NewReader(frame)).Decode(&m); err == nil || err == io.EOF {
			t.Errorf("frame %d: Decode of an id in text form: %v, want a refusal", i, err)
		}
	}
}

// TestExemplarFramesAreGolden: every exemplar encodes byte for byte to its
// frame in testdata/exemplars.frames, and the frame decodes to the
// exemplar, on its own and as part of one stream. The round-trip tests
// encode and decode with the same build, so a format change made to both
// sides at once passes them; this one fails it.
func TestExemplarFramesAreGolden(t *testing.T) {
	exemplars := exemplarMessages()
	golden := readFrames(t, "exemplars.frames", len(exemplars))
	var stream []byte
	for i, in := range exemplars {
		frame, err := wire.AppendMessage(nil, &in)
		if err != nil {
			t.Fatalf("exemplar %d (%T): %v", i, in.Payload, err)
		}
		if !bytes.Equal(frame, golden[i]) {
			t.Errorf("exemplar %d (%T) encodes to\n %x\nwant the golden\n %x", i, in.Payload, frame, golden[i])
		}
		m, n, clean, err := wire.ConsumeMessage(golden[i])
		if err != nil || n != len(golden[i]) || !clean || !reflect.DeepEqual(value(m), in) {
			t.Errorf("golden frame %d decodes to %+v (%d of %d bytes, clean %v, %v), want %+v",
				i, value(m), n, len(golden[i]), clean, err, in)
		}
		stream = append(stream, golden[i]...)
	}
	dec := wire.NewDecoder(bytes.NewReader(stream))
	for i, in := range exemplars {
		var m wire.Message
		if err := dec.Decode(&m); err != nil || !reflect.DeepEqual(value(m), in) {
			t.Errorf("golden frame %d streams to %+v (%v), want %+v", i, value(m), err, in)
		}
	}
}

// nonMinimalHeaderFrame is a well-formed 16-byte frame behind a two-byte
// encoding of 16, found by FuzzDecode: the one-shot parser refused the
// header, the stream decoder used to take it.
var nonMinimalHeaderFrame = []byte("\x90\x00\x01\f000000000000\x010")

// TestStreamDecoderRejectsNonMinimalHeader: the frame-length varint must be
// minimal for the stream decoder as it must for ConsumeMessage; the same
// frame behind the one-byte header decodes on both.
func TestStreamDecoderRejectsNonMinimalHeader(t *testing.T) {
	var m wire.Message
	if _, _, _, err := wire.ConsumeMessage(nonMinimalHeaderFrame); err == nil {
		t.Fatal("ConsumeMessage accepted a non-minimal frame header")
	}
	err := wire.NewDecoder(bytes.NewReader(nonMinimalHeaderFrame)).Decode(&m)
	if err == nil || !strings.Contains(err.Error(), "non-minimal frame header") {
		t.Errorf("Decode of a non-minimal frame header: %v, want a refusal naming it", err)
	}
	minimal := append([]byte{0x10}, nonMinimalHeaderFrame[2:]...)
	want, _, _, err := wire.ConsumeMessage(minimal)
	if err != nil {
		t.Fatalf("ConsumeMessage of the minimal form: %v", err)
	}
	if err := wire.NewDecoder(bytes.NewReader(minimal)).Decode(&m); err != nil || !reflect.DeepEqual(m, want) {
		t.Errorf("Decode of the minimal form: %+v, %v; want %+v", m, err, want)
	}
	// A header cut short is an error, not a clean end of stream.
	if err := wire.NewDecoder(bytes.NewReader([]byte{0x90})).Decode(&m); err == nil || err == io.EOF {
		t.Errorf("Decode of half a header: %v", err)
	}
	if err := wire.NewDecoder(bytes.NewReader(nil)).Decode(&m); err != io.EOF {
		t.Errorf("Decode at a clean end of stream: %v, want io.EOF", err)
	}
}

// FuzzDecode is a differential fuzzer over the frame decoder. Arbitrary
// bytes must never panic, and the stream decoder — the message it lends
// and the one Keep decodes again — must agree with the one-shot parser;
// any frame that does decode must (a) re-encode and
// decode to the same envelope, and (b) re-encode to the identical bytes
// (canonical encoding).
func FuzzDecode(f *testing.F) {
	exemplars := exemplarMessages()
	frames := make([][]byte, len(exemplars))
	for i := range exemplars {
		var err error
		if frames[i], err = wire.AppendMessage(nil, &exemplars[i]); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
	}
	for i, bin := range frames {
		f.Add(bin)
		f.Add(bin[:len(bin)-1])                                       // cut short
		f.Add(append(bytes.Clone(bin), frames[(i+1)%len(frames)]...)) // two frames back to back
	}
	// The retired frames and their gob twins are refusal inputs.
	retired := append(readFrames(f, "retired-migrate-chunks.frames", 8), readFrames(f, "retired-request-copies.frames", 4)...)
	retired = append(retired, readFrames(f, "retired-text-ids.frames", 40)...)
	for i := 0; i < len(retired); i += 2 {
		bin, gobbed := retired[i], retired[i+1]
		f.Add(bin)
		f.Add(gobbed)
		f.Add(append(append([]byte(nil), bin...), gobbed...))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{2, 1, 0}) // frame of size 2: tag nil, empty From — short
	f.Add([]byte{1, 1})    // frame of size 1: tag nil alone
	f.Add(nonMinimalHeaderFrame)
	for _, frame := range claimingFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream decoder must agree with the one-shot parser.
		dec := wire.NewDecoder(bytes.NewReader(data))
		rest := data
		for frames := 0; frames < 64; frames++ {
			m, n, clean, err := wire.ConsumeMessage(rest)
			var streamed wire.Message
			streamErr := dec.Decode(&streamed)
			if err != nil {
				// The stream decoder may fail differently (it reads lazily)
				// but must fail too, except at a clean end of stream.
				if streamErr == nil && len(rest) > 0 {
					t.Fatalf("ConsumeMessage rejected (%v) what Decode accepted: %+v", err, streamed)
				}
				return
			}
			if streamErr != nil {
				t.Fatalf("Decode rejected (%v) what ConsumeMessage accepted: %+v", streamErr, m)
			}
			if !reflect.DeepEqual(value(m), value(streamed)) {
				t.Fatalf("stream and one-shot decoders disagree:\n stream:   %+v\n one-shot: %+v", value(streamed), value(m))
			}
			if kept := dec.Keep(); !reflect.DeepEqual(value(m), value(kept)) {
				t.Fatalf("Keep and the one-shot parser disagree:\n Keep:     %+v\n one-shot: %+v", value(kept), value(m))
			}
			frame := rest[:n]
			rest = rest[n:]

			// (a) Re-encode must round-trip to the same envelope.
			re, err := wire.AppendMessage(nil, &m)
			if err != nil {
				t.Fatalf("re-encode of decoded message failed: %v (%+v)", err, m)
			}
			again, _, _, err := wire.ConsumeMessage(re)
			if err != nil {
				t.Fatalf("decode of re-encoded message failed: %v (%+v)", err, m)
			}
			if !reflect.DeepEqual(value(m), value(again)) {
				t.Fatalf("re-encode round trip mismatch:\n got:  %+v\n want: %+v", value(again), value(m))
			}
			// (b) Every frame that decodes re-encodes bit for bit: the
			// canonical rules (minimal varints, 0/1 bools, no trailing
			// bytes) leave exactly one encoding per message.
			if !clean || !bytes.Equal(re, frame) {
				t.Fatalf("decoded frame (clean %v) is not byte-stable:\n in:  %x\n out: %x", clean, frame, re)
			}
			if len(rest) == 0 {
				return
			}
		}
	})
}
