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

func init() {
	RegisterPayload(testPayload{})
	RegisterPayload(otherPayload{})
}

func TestIDHelpers(t *testing.T) {
	if got := ReplicaID("groupA", 2); got != "groupA/2" {
		t.Errorf("ReplicaID = %q, want groupA/2", got)
	}
	if got := ClientID("c7"); got != "client/c7" {
		t.Errorf("ClientID = %q, want client/c7", got)
	}
	id := InvocationID{Logical: "client/c7#3", Seq: 9}
	if got := id.String(); got != "client/c7#3#9" {
		t.Errorf("InvocationID.String = %q", got)
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
	p, ok := out.Payload.(testPayload)
	if !ok {
		t.Fatalf("payload type = %T, want testPayload", out.Payload)
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
