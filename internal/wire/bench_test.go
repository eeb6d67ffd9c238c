package wire_test

import (
	"testing"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// benchCases are the hot payloads of the protocol: every client invocation
// crosses the wire as a Request inside a Submit, is rebroadcast inside an
// Ordered (a copy of one already ordered is answered with a Hint), and
// returns as a Reply — or, for a nested call, as a Reply nested in the
// calling group's Submit and Ordered; Heartbeats dominate message count at
// idle.
func benchCases() []struct {
	name string
	msg  wire.Message
} {
	req := replica.Request{
		ID:      wire.InvocationID{Logical: "client/c1", Call: 7},
		Group:   "g",
		Method:  "add",
		Args:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
		ReplyTo: "client/c1",
	}
	sub := gcs.Submit{Group: "g", Origin: "client/c1", Call: req.ID.Call, Payload: &req}
	return []struct {
		name string
		msg  wire.Message
	}{
		{"Request", wire.Message{From: "client/c1", To: "g/0", Payload: req}},
		{"Reply", wire.Message{From: "g/0", To: "client/c1", Payload: replica.Reply{
			ID: req.ID, From: "g/0", Result: []byte{42, 0, 0, 0, 0, 0, 0, 0}}}},
		{"Submit", wire.Message{From: "client/c1", To: "g/0", Payload: sub}},
		{"Ordered", wire.Message{From: "g/0", To: "g/1", Payload: gcs.Ordered{
			Group: "g", Epoch: 3, Seq: 41, Origin: sub.Origin, Call: sub.Call, Payload: &req}}},
		{"NestedReply", wire.Message{From: "g/0", To: "g/1", Payload: gcs.Ordered{
			Group: "g", Epoch: 3, Seq: 42, ID: "nested-reply/client/c1#7#7001", Origin: "h/0", Payload: &replica.Reply{
				ID: wire.InvocationID{Logical: "client/c1", Call: 7, Seq: 7001}, From: "h/0", Result: []byte{42, 0, 0, 0, 0, 0, 0, 0}}}}},
		{"Hint", wire.Message{From: "g/0", To: "g/1", Payload: gcs.Hint{
			Group: "g", Origin: sub.Origin, Call: sub.Call, Seq: 41}}},
		{"Heartbeat", wire.Message{From: "g/2", To: "g/0", Payload: gcs.Heartbeat{
			Group: "g", From: "g/2", Epoch: 3, MaxSeq: 40}}},
		{"ViewChange", wire.Message{From: "g/0", To: "g/1", Payload: gcs.Ordered{
			Group: "g", Epoch: 4, Seq: 42, ID: "viewevent/g/0/4", Origin: "g/0",
			View: &gcs.View{Epoch: 4, Members: []wire.NodeID{"g/0", "g/1"}}}}},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, tc := range benchCases() {
		m := tc.msg
		b.Run(tc.name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			var err error
			for i := 0; i < b.N; i++ {
				if buf, err = wire.AppendMessage(buf[:0], &m); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// replay is an endless stream of one frame.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// BenchmarkDecode decodes each hot payload two ways: one-shot from a byte
// slice (binary), and through a long-lived stream Decoder (stream) — what
// a TCP connection runs, with the frame reader reused and identifiers
// interned.
func BenchmarkDecode(b *testing.B) {
	for _, tc := range benchCases() {
		m := tc.msg
		bin, err := wire.AppendMessage(nil, &m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bin)))
			for i := 0; i < b.N; i++ {
				if _, _, _, err := wire.ConsumeMessage(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bin)))
			dec := wire.NewDecoder(&replay{frame: bin})
			var out wire.Message
			for i := 0; i < b.N; i++ {
				if err := dec.Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
