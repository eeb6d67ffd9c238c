package wire

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

type propPayload struct {
	A int64
	B string
	C []byte
	D map[string]uint32
	E bool
}

func init() {
	Register(102, func(b *Buffer, p propPayload) error {
		b.Uvarint(uint64(p.A))
		b.String(p.B)
		b.Bytes(p.C)
		b.Uvarint(uint64(len(p.D)))
		for _, k := range slices.Sorted(maps.Keys(p.D)) {
			b.String(k)
			b.Uvarint(uint64(p.D[k]))
		}
		b.Bool(p.E)
		return nil
	}, func(r *Reader) propPayload {
		p := propPayload{A: int64(r.Uvarint()), B: r.String(), C: r.Bytes()}
		if n := r.Count("map entry", 2); n > 0 {
			p.D = make(map[string]uint32, n)
			for ; n > 0; n-- {
				k := r.String()
				p.D[k] = uint32(r.Uvarint())
			}
		}
		p.E = r.Bool()
		return p
	})
}

// TestQuickCodecRoundTrip: any message encodes and decodes identically.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(from, to string, p propPayload) bool {
		var buf bytes.Buffer
		in := Message{From: NodeID(from), To: NodeID(to), Payload: p}
		if err := writeFrame(&buf, &in); err != nil {
			return false
		}
		var out Message
		if err := NewDecoder(&buf).Decode(&out); err != nil {
			return false
		}
		got, ok := out.Payload.(*propPayload)
		if !ok || out.From != in.From || out.To != in.To {
			return false
		}
		// The codec decodes an empty container as nil; normalize.
		return got.A == p.A && got.B == p.B && got.E == p.E &&
			bytes.Equal(got.C, p.C) && equalMaps(got.D, p.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func equalMaps(a, b map[string]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestQuickCodecStream: sequences of frames written back to back decode in
// order through one persistent decoder.
func TestQuickCodecStream(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		var buf bytes.Buffer
		var want []Message
		for i := 0; i < count; i++ {
			m := Message{
				From:    NodeID(randStr(rng)),
				To:      NodeID(randStr(rng)),
				Payload: propPayload{A: rng.Int63(), B: randStr(rng)},
			}
			want = append(want, m)
			if err := writeFrame(&buf, &m); err != nil {
				return false
			}
		}
		dec := NewDecoder(&buf)
		for i := 0; i < count; i++ {
			var got Message
			if err := dec.Decode(&got); err != nil {
				return false
			}
			if got.From != want[i].From || got.To != want[i].To {
				return false
			}
			if !reflect.DeepEqual(got.Payload.(*propPayload).A, want[i].Payload.(propPayload).A) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randStr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12)+1)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestQuickInvocationIDString: distinct ids produce distinct strings (the
// string form is used as a deduplication key end to end).
func TestQuickInvocationIDString(t *testing.T) {
	f := func(l1, l2 string, s1, s2 uint64) bool {
		a := InvocationID{Logical: LogicalID(l1), Seq: s1}
		b := InvocationID{Logical: LogicalID(l2), Seq: s2}
		if a == b {
			return a.String() == b.String()
		}
		// Logical ids never contain '#' in practice (they are built from
		// node ids and counters); restrict the claim accordingly.
		if hasHash(l1) || hasHash(l2) {
			return true
		}
		return a.String() != b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func hasHash(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			return true
		}
	}
	return false
}
