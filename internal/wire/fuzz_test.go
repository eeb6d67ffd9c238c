package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
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
// the checked-in corpus files are numbered by position. (The corpus was
// generated while migration chunks, tag 27, were a payload too; their
// files stay as frames of an unknown tag, which both decoders refuse. The
// frames those exemplars encoded to are kept in retiredFrames.)
func exemplarMessages() []wire.Message {
	view := gcs.View{Epoch: 3, Members: []wire.NodeID{"g/0", "g/1", "g/2"}}
	sub := gcs.Submit{Group: "g", ID: "inv-1", Origin: "client/c1",
		Payload: replica.Request{
			ID:      wire.InvocationID{Logical: "client/c1", Seq: 7},
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
			ID: wire.InvocationID{Logical: "client/c1", Seq: 7}, From: "g/0",
			Result: []byte{9}, Err: ""}},
		{From: "g/0", To: "g/1", Payload: adets.TimeoutMsg{
			Target: "client/c1", Mutex: "state", Cond: "ready", WaitSeq: 2}},
		{From: "g/0", To: "g/1", Payload: lsa.TableUpdate{
			From:    "g/0",
			Entries: []lsa.TableEntry{{M: "state", L: "client/c1"}}}},
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
		// The call number: on a client's plain request, and beside every
		// other group (a name's second bearer: the incarnation sits above
		// bit 32).
		{From: "client/c1", To: "g/0", Payload: request(func(q *replica.Request) { q.Call = 7 })},
		{From: "client/c1", To: "kv@0/0", Payload: request(func(q *replica.Request) {
			q.Trace, q.ShardKey, q.Call = trace, "acct-4", 1<<32|7
		})},
		// Message ids by number: a client's call is (origin, call) on the
		// Submit, the Ordered and the Hint, with no text; a named id keeps
		// its string, on a Hint too (the answer to a copy of an ordered
		// nested reply).
		{From: "client/c1", To: "g/0", Payload: gcs.Submit{Group: "g", Origin: "client/c1", Call: 7,
			Payload: request(func(q *replica.Request) { q.Call = 7 })}},
		{From: "g/0", To: "g/1", Payload: gcs.Ordered{Group: "g", Epoch: 3, Seq: 43, Origin: "client/c1", Call: 1<<32 | 7,
			Payload: request(func(q *replica.Request) { q.Call = 1<<32 | 7 })}},
		{From: "g/0", To: "g/1", Payload: gcs.Hint{Group: "g", Origin: "client/c1", Call: 7, Seq: 43}},
		{From: "g/0", To: "g/2", Payload: gcs.Hint{Group: "g", ID: "nested-reply/g/0#3#1", Seq: 44}},
		{From: "g/2", To: "g/1", Payload: gcs.SyncResp{
			Group: "g", From: "g/2", Epoch: 3, Delivered: 42,
			Tail:    []gcs.Ordered{{Group: "g", Epoch: 3, Seq: 43, Origin: "client/c1", Call: 7}},
			Pending: []gcs.Submit{{Group: "g", Origin: "client/c2", Call: 1}}}},
		// The copy set a speculating group's client names, on its submit
		// and on the Ordered that carries the request on.
		{From: "client/c1", To: "g/1", Payload: gcs.Submit{Group: "g", Origin: "client/c1", Call: 8,
			Payload: request(func(q *replica.Request) { q.Call, q.Copies = 8, 0b011 })}},
		{From: "g/0", To: "g/2", Payload: gcs.Ordered{Group: "g", Epoch: 3, Seq: 44, Origin: "client/c1", Call: 8,
			Payload: request(func(q *replica.Request) { q.Trace, q.Call, q.Copies = trace, 8, 0b110 })}},
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
		ID:    wire.InvocationID{Logical: "client/c1", Seq: 7},
		Group: "g", Method: "add", Args: []byte{1, 2, 3}, ReplyTo: "client/c1"}
	edit(&q)
	return q
}

func reply(edit func(*replica.Reply)) replica.Reply {
	p := replica.Reply{ID: wire.InvocationID{Logical: "client/c1", Seq: 7}, From: "g/0", Result: []byte{9}}
	edit(&p)
	return p
}

// TestRoundTripAllMessageTypes: encode→decode preserves every registered
// protocol message bit for bit.
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
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T: round trip mismatch:\n in:  %+v\n out: %+v", in.Payload, in, out)
		}
	}
}

// TestDifferentialBinaryVsGob cross-checks the two codec paths on every
// exemplar: the hand-marshalled binary frame and its gob twin must decode
// to deeply equal messages, and the binary frame must survive a
// decode→re-encode cycle bit for bit (the canonical-encoding guarantee).
func TestDifferentialBinaryVsGob(t *testing.T) {
	for _, in := range exemplarMessages() {
		bin, err := wire.AppendMessage(nil, &in)
		if err != nil {
			t.Fatalf("%T: binary encode: %v", in.Payload, err)
		}
		gobbed, err := wire.AppendMessageGob(nil, &in)
		if err != nil {
			t.Fatalf("%T: gob encode: %v", in.Payload, err)
		}
		fromBin, n, clean, err := wire.ConsumeMessage(bin)
		if err != nil {
			t.Fatalf("%T: binary decode: %v", in.Payload, err)
		}
		if n != len(bin) {
			t.Errorf("%T: binary frame consumed %d of %d bytes", in.Payload, n, len(bin))
		}
		fromGob, _, _, err := wire.ConsumeMessage(gobbed)
		if err != nil {
			t.Fatalf("%T: gob decode: %v", in.Payload, err)
		}
		if !reflect.DeepEqual(fromBin, fromGob) {
			t.Errorf("%T: codec paths disagree:\n binary: %+v\n gob:    %+v",
				in.Payload, fromBin, fromGob)
		}
		if !reflect.DeepEqual(fromBin, in) {
			t.Errorf("%T: binary round trip mismatch:\n in:  %+v\n out: %+v",
				in.Payload, in, fromBin)
		}
		if clean {
			re, err := wire.AppendMessage(nil, &fromBin)
			if err != nil {
				t.Fatalf("%T: re-encode: %v", in.Payload, err)
			}
			if !bytes.Equal(re, bin) {
				t.Errorf("%T: binary-clean frame is not byte-stable:\n first:  %x\n second: %x",
					in.Payload, bin, re)
			}
		}
	}
}

// retiredFrames returns the frames of the exemplars that carried a
// migration chunk (tag 27) when live resharding still existed, in
// testdata/retired-migrate-chunks.frames: four messages, each as its binary
// frame followed by its gob twin.
func retiredFrames(tb testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/retired-migrate-chunks.frames")
	if err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	for len(data) > 0 {
		size, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < size {
			tb.Fatalf("retired frames: bad frame header after %d frames", len(frames))
		}
		frames = append(frames, data[:n+int(size)])
		data = data[n+int(size):]
	}
	if len(frames) != 8 {
		tb.Fatalf("retired frames: %d frames, want 8", len(frames))
	}
	return frames
}

// TestRetiredMigrationFramesRefused: a frame carrying a migration chunk, a
// payload this build no longer registers, is an error on both codec paths
// and on the stream decoder, never a panic or a misread payload.
func TestRetiredMigrationFramesRefused(t *testing.T) {
	for i, frame := range retiredFrames(t) {
		if m, _, _, err := wire.ConsumeMessage(frame); err == nil {
			t.Errorf("frame %d: ConsumeMessage accepted a retired payload: %+v", i, m)
		}
		var m wire.Message
		if err := wire.NewDecoder(bytes.NewReader(frame)).Decode(&m); err == nil || err == io.EOF {
			t.Errorf("frame %d: Decode of a retired payload: %v, want a refusal", i, err)
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
// bytes must never panic; any frame that does decode must (a) re-encode
// and decode to the same envelope, (b) if it decoded entirely through the
// binary fast path, re-encode to the identical bytes (canonical encoding),
// and (c) decode to the same message through the gob fallback twin.
func FuzzDecode(f *testing.F) {
	for _, m := range exemplarMessages() {
		bin, err := wire.AppendMessage(nil, &m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(bin)
		gobbed, err := wire.AppendMessageGob(nil, &m)
		if err != nil {
			f.Fatalf("seed gob encode: %v", err)
		}
		f.Add(gobbed)
		f.Add(append(append([]byte(nil), bin...), gobbed...)) // two frames back to back
	}
	retired := retiredFrames(f)
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
			if !reflect.DeepEqual(m, streamed) {
				t.Fatalf("stream and one-shot decoders disagree:\n stream:   %+v\n one-shot: %+v", streamed, m)
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
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("re-encode round trip mismatch:\n got:  %+v\n want: %+v", again, m)
			}
			// (b) Binary-clean frames re-encode bit for bit: the canonical
			// rules (minimal varints, 0/1 bools, no trailing bytes) leave
			// exactly one encoding per message.
			if clean && !bytes.Equal(re, frame) {
				t.Fatalf("binary-clean frame is not byte-stable:\n in:  %x\n out: %x", frame, re)
			}
			// (c) The gob twin must decode to the same message. Nil payloads
			// are skipped: gob cannot encode a nil interface.
			if m.Payload != nil {
				gb, err := wire.AppendMessageGob(nil, &m)
				if err != nil {
					t.Fatalf("gob twin encode failed: %v (%+v)", err, m)
				}
				fromGob, _, _, err := wire.ConsumeMessage(gb)
				if err != nil {
					t.Fatalf("gob twin decode failed: %v (%+v)", err, m)
				}
				if !reflect.DeepEqual(m, fromGob) {
					t.Fatalf("codec paths disagree:\n binary: %+v\n gob:    %+v", m, fromGob)
				}
			}
			if len(rest) == 0 {
				return
			}
		}
	})
}
