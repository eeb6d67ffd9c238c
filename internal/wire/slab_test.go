package wire_test

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// slabRequest is the i-th nested request of a slab test: its Args run from
// 1 to 40 bytes, and every 97th is longer than the carve limit.
func slabRequest(i int) replica.Request {
	n := 1 + i%40
	if i%97 == 0 {
		n = wire.MaxCarve + 1 + i%200
	}
	return replica.Request{
		ID:    wire.InvocationID{Logical: "client/c1", Call: uint64(i + 1)},
		Group: "g", Method: "add", Args: bytes.Repeat([]byte{byte(i)}, n), ReplyTo: "client/c1"}
}

// slabFrames returns a stream of frames that nest n requests — as Submits,
// Ordereds, and SyncResps whose tail and pending entries nest them — and
// the requests in the order they are nested.
func slabFrames(t testing.TB, n int) (stream []byte, want []replica.Request) {
	t.Helper()
	next := func() *replica.Request {
		q := slabRequest(len(want))
		want = append(want, q)
		return &q
	}
	for len(want) < n {
		var p any
		switch len(want) % 3 {
		case 0:
			p = &gcs.Submit{Group: "g", Origin: "client/c1", Call: uint64(len(want) + 1), Payload: next()}
		case 1:
			p = &gcs.Ordered{Group: "g", Epoch: 1, Seq: uint64(len(want)), Origin: "client/c1", Call: uint64(len(want) + 1), Payload: next()}
		default:
			p = &gcs.SyncResp{Group: "g", From: "g/2", Epoch: 1,
				Tail:    []gcs.Ordered{{Group: "g", Epoch: 1, Seq: 1, ID: "a", Payload: next()}, {Group: "g", Epoch: 1, Seq: 2, ID: "b", Payload: next()}},
				Pending: []gcs.Submit{{Group: "g", ID: "c", Origin: "client/c2", Payload: next()}}}
		}
		var err error
		if stream, err = wire.AppendMessage(stream, &wire.Message{From: "g/0", To: "g/1", Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	return stream, want
}

// nestedRequests returns the *Requests a decoded Submit, Ordered or
// SyncResp nests, failing on a nested payload of any other form.
func nestedRequests(t *testing.T, m wire.Message) []*replica.Request {
	t.Helper()
	var nested []any
	switch p := m.Payload.(type) {
	case *gcs.Submit:
		nested = append(nested, p.Payload)
	case *gcs.Ordered:
		nested = append(nested, p.Payload)
	case *gcs.SyncResp:
		for _, o := range p.Tail {
			nested = append(nested, o.Payload)
		}
		for _, s := range p.Pending {
			nested = append(nested, s.Payload)
		}
	default:
		t.Fatalf("decoded a %T", m.Payload)
	}
	var qs []*replica.Request
	for _, v := range nested {
		q, ok := v.(*replica.Request)
		if !ok {
			t.Fatalf("a nested payload is a %T, want a *replica.Request", v)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestSlabKeptPayloads: a stream Decoder carves every nested payload, and
// its small byte fields, from chunks it never writes again once it has
// handed an element out. Thousands of Submits, Ordereds and SyncResps are
// decoded on one Decoder, every nested *Request and its Args kept, and only
// then is anything compared: each still holds what was encoded, each Args
// ends at its length (an append copies rather than writing into the next
// field), and a field over the carve limit is a slice of its own.
func TestSlabKeptPayloads(t *testing.T) {
	stream, want := slabFrames(t, 3000)
	dec := wire.NewDecoder(bytes.NewReader(stream))
	var kept []*replica.Request
	var args [][]byte
	for len(kept) < len(want) {
		var m wire.Message
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("after %d requests: %v", len(kept), err)
		}
		for _, q := range nestedRequests(t, m) {
			kept, args = append(kept, q), append(args, q.Args)
		}
	}
	for i, q := range kept {
		if !reflect.DeepEqual(*q, want[i]) || !bytes.Equal(args[i], want[i].Args) {
			t.Fatalf("request %d reads %+v (args %v), want %+v", i, *q, args[i], want[i])
		}
		if cap(args[i]) != len(args[i]) {
			t.Errorf("request %d: args of %d bytes have capacity %d", i, len(args[i]), cap(args[i]))
		}
	}
	for i := range kept[:len(kept)-1] {
		if kept[i] == kept[i+1] {
			t.Fatalf("requests %d and %d share a cell", i, i+1)
		}
	}

	// A small field, a field over the limit, a small field: the two small
	// ones lie side by side in the stream's first byte chunk, which the
	// long one took nothing from and does not lie in.
	var frames []byte
	for i, n := range []int{3, wire.MaxCarve + 1, 5} {
		q := replica.Request{Group: "g", Method: "m", Args: bytes.Repeat([]byte{byte(i + 1)}, n)}
		var err error
		if frames, err = wire.AppendMessage(frames, &wire.Message{From: "c", To: "g/0",
			Payload: &gcs.Submit{Group: "g", Origin: "c", Call: uint64(i + 1), Payload: &q}}); err != nil {
			t.Fatal(err)
		}
	}
	dec = wire.NewDecoder(bytes.NewReader(frames))
	var fields [][]byte
	for range 3 {
		var m wire.Message
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		fields = append(fields, nestedRequests(t, m)[0].Args)
	}
	small, long, next := fields[0], fields[1], fields[2]
	at := func(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
	if at(small)+uintptr(len(small)) != at(next) {
		t.Errorf("the small fields around a long one are not side by side: %#x+%d, %#x", at(small), len(small), at(next))
	}
	if chunk := at(small); at(long) >= chunk && at(long) < chunk+wire.MinByteChunk {
		t.Errorf("a field of %d bytes was carved from the byte chunk at %#x (at %#x)", len(long), chunk, at(long))
	}
	if len(long) != wire.MaxCarve+1 || cap(long) != len(long) {
		t.Errorf("the long field: %d bytes, capacity %d", len(long), cap(long))
	}
}
