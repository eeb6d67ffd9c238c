package wire_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/iotest"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// TestValueAndPointerEncodeAlike: a payload sent as a T and as a *T is the
// same frame, under its codec's tag, for every registered type. Senders pass a *T; benchmark/probes.go
// encodes T values.
func TestValueAndPointerEncodeAlike(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, m := range exemplarMessages() {
		byValue, err := wire.AppendMessage(nil, &m)
		if err != nil {
			t.Fatalf("%T: %v", m.Payload, err)
		}
		p := reflect.New(reflect.TypeOf(m.Payload))
		p.Elem().Set(reflect.ValueOf(m.Payload))
		pm := m
		pm.Payload = p.Interface()
		byPointer, err := wire.AppendMessage(nil, &pm)
		if err != nil {
			t.Fatalf("%T: %v", pm.Payload, err)
		}
		if !bytes.Equal(byValue, byPointer) {
			t.Errorf("%T: the value encodes to %x, the pointer to %x", m.Payload, byValue, byPointer)
		}
		_, n := binary.Uvarint(byPointer)
		if tag, _ := binary.Uvarint(byPointer[n:]); tag < wire.TagUserMin {
			t.Errorf("%T: frame tag %d, want a binary codec's", m.Payload, tag)
		}
		seen[reflect.TypeOf(m.Payload)] = true
	}
	for _, typ := range wire.RegisteredTypes() {
		if !seen[typ] {
			t.Errorf("%v is registered but has no exemplar", typ)
		}
	}
}

// TestDecoderLendsOneCellPerTag: a stream Decoder decodes every payload of
// a type into the one *T it lends; Release zeroes it. A Reply's Result is a
// window into the frame: an Own copy of the Reply shares it, so a holder
// that keeps the Result copies it, and Keep decodes the frame again into a
// message that shares nothing. Neither copy is touched by later frames,
// read one byte at a time so that each lands where the last one lay.
func TestDecoderLendsOneCellPerTag(t *testing.T) {
	first := wire.Message{From: "g/0", To: "client/c1", Payload: &replica.Reply{From: "g/0", Result: []byte("one")}}
	hint := wire.Message{From: "g/0", To: "g/1", Payload: &gcs.Hint{Group: "g", Origin: "client/c1", Call: 7, Seq: 41}}
	second := wire.Message{From: "g/1", To: "client/c1", Payload: &replica.Reply{From: "g/1", Result: []byte("two")}}
	var stream []byte
	for _, m := range []wire.Message{first, hint, second} {
		var err error
		if stream, err = wire.AppendMessage(stream, &m); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewDecoder(iotest.OneByteReader(bytes.NewReader(stream)))
	var m wire.Message
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	lent, ok := m.Payload.(*replica.Reply)
	if !ok || !reflect.DeepEqual(*lent, *first.Payload.(*replica.Reply)) {
		t.Fatalf("first frame decoded to %#v", m.Payload)
	}
	if cap(lent.Result) != len(lent.Result) {
		t.Errorf("the lent Result has room for %d more bytes: an append would write into the frame", cap(lent.Result)-len(lent.Result))
	}
	kept := wire.Own(m.Payload).(*replica.Reply)
	if kept == lent {
		t.Fatal("Own returned the lent cell")
	}
	kept.Result = bytes.Clone(kept.Result)
	whole := dec.Keep()
	if whole.Payload == any(lent) || !reflect.DeepEqual(value(whole), value(first)) {
		t.Fatalf("Keep returned %+v (the lent cell: %v)", whole, whole.Payload == any(lent))
	}
	dec.Release()
	if !reflect.DeepEqual(*lent, replica.Reply{}) {
		t.Errorf("Release left the cell holding %+v", *lent)
	}
	if err := dec.Decode(&m); err != nil { // the Hint, in a cell of its own
		t.Fatal(err)
	}
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Payload != any(lent) {
		t.Errorf("the second Reply came in %p, not the cell %p", m.Payload, lent)
	}
	if string(lent.Result) != "two" || string(kept.Result) != "one" {
		t.Errorf("cell holds %q and the copy %q, want \"two\" and \"one\"", lent.Result, kept.Result)
	}
	if got := whole.Payload.(*replica.Reply).Result; string(got) != "one" {
		t.Errorf("Keep's copy holds %q after later frames, want \"one\"", got)
	}
}
