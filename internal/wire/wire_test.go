package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

type testPayload struct {
	N    int
	Text string
	Data []byte
}

type otherPayload struct {
	Flag bool
}

// The payloads of this package's tests take tags from 100 up, above every
// tag the product registers.
func init() {
	Register(100, func(b *Buffer, p testPayload) error {
		b.Uvarint(uint64(int64(p.N)))
		b.String(p.Text)
		b.Bytes(p.Data)
		return nil
	}, func(r *Reader) testPayload {
		return testPayload{N: int(int64(r.Uvarint())), Text: r.String(), Data: r.Bytes()}
	})
	Register(101, func(b *Buffer, p otherPayload) error {
		b.Bool(p.Flag)
		return nil
	}, func(r *Reader) otherPayload { return otherPayload{Flag: r.Bool()} })
}

func TestIDHelpers(t *testing.T) {
	if got := ReplicaID("groupA", 2); got != "groupA/2" {
		t.Errorf("ReplicaID = %q, want groupA/2", got)
	}
	if got := ClientID("c7"); got != "client/c7" {
		t.Errorf("ClientID = %q, want client/c7", got)
	}
	// A client's call names its thread by number; the text is what a
	// thread named by text alone (Call 0) spells out.
	id := InvocationID{Logical: "client/c7", Call: 3, Seq: 9}
	if got := id.String(); got != "client/c7#3#9" {
		t.Errorf("InvocationID.String = %q", got)
	}
	if got := id.Thread().String(); got != "client/c7#3" {
		t.Errorf("ThreadID.String = %q", got)
	}
	text := InvocationID{Logical: "client/c7#3", Seq: 9}
	if got := text.String(); got != id.String() {
		t.Errorf("text-named InvocationID.String = %q, want %q", got, id.String())
	}
	if text.Thread() == id.Thread() {
		t.Error("a thread named by text equals the numbered thread it spells")
	}
	if got := (ThreadID{Logical: "probe"}).String(); got != "probe" {
		t.Errorf("ThreadID.String of an unnumbered thread = %q", got)
	}
}

// TestAppendMessageFrames: a frame appended after the caller's bytes is its
// length prefix, minimal, and the body, for bodies on both sides of every
// prefix length up to three bytes; the caller's bytes stay, and a frame over
// the limit leaves dst as it was.
func TestAppendMessageFrames(t *testing.T) {
	head := []byte("xyz")
	for _, n := range []int{0, 60, 126, 127, 128, 200, 16300, 16383, 16384, 16500, 1 << 20} {
		m := Message{From: "a", To: "b", Payload: testPayload{N: n, Data: make([]byte, n)}}
		body := getBuffer()
		if err := appendBody(body, &m); err != nil {
			t.Fatal(err)
		}
		want := append(binaryAppendUvarint(append([]byte(nil), head...), len(body.b)), body.b...)
		putBuffer(body)
		got, err := AppendMessage(append([]byte(nil), head...), &m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("payload of %d bytes: frame differs from prefix+body", n)
		}
	}
	big := Message{From: "a", To: "b", Payload: testPayload{Data: make([]byte, maxFrame)}}
	dst := append(make([]byte, 0, 64), head...)
	if got, err := AppendMessage(dst, &big); err == nil || !bytes.Equal(got, head) {
		t.Errorf("oversized frame: %d bytes back, %v; want the caller's 3 and an error", len(got), err)
	}
}

func binaryAppendUvarint(b []byte, n int) []byte {
	for v := uint64(n); ; v >>= 7 {
		if v < 0x80 {
			return append(b, byte(v))
		}
		b = append(b, byte(v)|0x80)
	}
}

// writeFrame writes m's frame to w in one Write, as the TCP transport's
// writer does for a burst.
func writeFrame(w io.Writer, m *Message) error {
	frame, err := AppendMessage(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	dec := NewDecoder(&buf)

	in := Message{
		From:    "a",
		To:      "b",
		Payload: testPayload{N: 42, Text: "hello", Data: []byte{1, 2, 3}},
	}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	var out Message
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	p, ok := out.Payload.(*testPayload)
	if !ok {
		t.Fatalf("payload type = %T, want *testPayload", out.Payload)
	}
	if out.From != "a" || out.To != "b" || p.N != 42 || p.Text != "hello" || !bytes.Equal(p.Data, []byte{1, 2, 3}) {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestCodecMultipleFramesAndTypes(t *testing.T) {
	var buf bytes.Buffer
	dec := NewDecoder(&buf)
	msgs := []Message{
		{From: "a", To: "b", Payload: testPayload{N: 1}},
		{From: "b", To: "a", Payload: otherPayload{Flag: true}},
		{From: "a", To: "b", Payload: testPayload{N: 2, Text: strings.Repeat("x", 10000)}},
	}
	for i := range msgs {
		if err := writeFrame(&buf, &msgs[i]); err != nil {
			t.Fatalf("writeFrame[%d]: %v", i, err)
		}
	}
	for i := range msgs {
		var out Message
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("Decode[%d]: %v", i, err)
		}
		if out.From != msgs[i].From {
			t.Errorf("frame %d: From = %q, want %q", i, out.From, msgs[i].From)
		}
	}
	var out Message
	if err := dec.Decode(&out); err != io.EOF {
		t.Errorf("Decode past end = %v, want io.EOF", err)
	}
}

func TestCodecRejectsOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame claim
	dec := NewDecoder(&buf)
	var out Message
	if err := dec.Decode(&out); err == nil {
		t.Error("Decode of oversized frame succeeded, want error")
	}
}

func TestCodecTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Message{From: "a", To: "b", Payload: testPayload{N: 5}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	dec := NewDecoder(bytes.NewReader(trunc))
	var out Message
	if err := dec.Decode(&out); err == nil {
		t.Error("Decode of truncated frame succeeded, want error")
	}
}
