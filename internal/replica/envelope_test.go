package replica

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// exemplarEnvelope holds every field of the envelope grammar: a state, an
// id-window row still executing (a nested call of a client's thread), a
// client row with its reply, error, code and trace context, and three
// streams.
func exemplarEnvelope() snapshotEnvelope {
	return snapshotEnvelope{
		Seq:   40,
		State: []byte("state image"),
		Entries: []seenEntry{
			{callRef{ID: wire.InvocationID{Logical: "client/d", Call: 3, Seq: 3002}}, amoEntry{At: 33}},
			{callRef{wire.InvocationID{Logical: "client/c", Call: 9}, "client/c"},
				amoEntry{At: 38, Result: []byte{1, 2}, Err: "boom", Trace: tracing.Context{TraceID: 7, Span: 300},
					Code: CodeExpiredDuplicate, Done: true}},
		},
		Streams: map[string]obs.StreamState{
			"order": {Count: 41, Digest: 1 << 63}, "sched": {Count: 90, Digest: 5}, "mutex/state": {Count: 3, Digest: 9},
		},
	}
}

// envelopeSeeds are FuzzSnapshotEnvelope's seed corpus: two envelopes that
// decode, and three near misses and two forged counts that must not.
func envelopeSeeds() map[string][]byte {
	full, empty := exemplarEnvelope(), snapshotEnvelope{}
	good := full.encode(nil)
	// Two streams out of name order.
	unsorted := wire.Append(nil, func(b *wire.Buffer) {
		b.Uvarint(1)
		b.Bytes(nil)
		b.Uvarint(0)
		b.Uvarint(2)
		for _, name := range []string{"sched", "order"} {
			b.String(name)
			b.Uvarint(1)
			b.Uvarint(1)
		}
	})
	seeds := map[string][]byte{
		"seed-full":             good,
		"seed-empty":            empty.encode(nil),
		"seed-unsorted-streams": unsorted,
		"seed-non-minimal-seq":  append([]byte{0xa8, 0x00}, good[1:]...),
		"seed-trailing-byte":    append(bytes.Clone(good), 0),
	}
	for name, data := range claimingEnvelopes() {
		seeds["seed-claims-"+name] = data
	}
	return seeds
}

// claimingEnvelopes returns envelopes whose count of at-most-once entries,
// or of trace streams, claims more elements than follow: as many as the
// filler after it could hold at the element's least size (11 bytes an
// entry, 3 a stream), and one per filler byte, the most the reader took
// before. The filler is 2 KiB of 0xff, on which the first element already
// fails.
func claimingEnvelopes() map[string][]byte {
	const filler = 2048
	claim := func(entries bool, count int) []byte {
		head := wire.Append(nil, func(b *wire.Buffer) {
			b.Uvarint(1)
			b.Bytes(nil)
			if !entries {
				b.Uvarint(0)
			}
			b.Uvarint(uint64(count))
		})
		return append(head, bytes.Repeat([]byte{0xff}, filler)...)
	}
	return map[string][]byte{
		"entries-fit": claim(true, filler/11), "entries-per-byte": claim(true, filler),
		"streams-fit": claim(false, filler/3), "streams-per-byte": claim(false, filler),
	}
}

// TestSnapshotEnvelopeRoundTrip: the exemplar decodes to itself, and each
// near miss is refused with an error that wraps errBadEnvelope.
func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	want := exemplarEnvelope()
	if got, err := decodeEnvelope(want.encode(nil)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %v\n got  %+v\n want %+v", err, got, want)
	}
	for name, data := range envelopeSeeds() {
		_, err := decodeEnvelope(data)
		decodes := name == "seed-full" || name == "seed-empty"
		if decodes != (err == nil) || err != nil && !errors.Is(err, errBadEnvelope) {
			t.Errorf("%s: decode error %v", name, err)
		}
	}
}

// FuzzSnapshotEnvelope: arbitrary bytes never panic the envelope decoder,
// every error it returns wraps errBadEnvelope, and anything that decodes
// re-encodes byte-identically: the canonical form that lets replicas
// compare their images. The checked-in corpus is envelopeSeeds' output.
func FuzzSnapshotEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, errBadEnvelope) {
				t.Fatalf("error %v does not wrap errBadEnvelope", err)
			}
			return
		}
		if got := env.encode(nil); !bytes.Equal(got, data) {
			t.Fatalf("non-canonical envelope accepted: %x re-encodes to %x", data, got)
		}
	})
}

// TestGenerateEnvelopeCorpus refreshes the checked-in FuzzSnapshotEnvelope
// corpus. Run with REPLOBJ_GEN_CORPUS=1; it is a no-op otherwise.
func TestGenerateEnvelopeCorpus(t *testing.T) {
	if os.Getenv("REPLOBJ_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set REPLOBJ_GEN_CORPUS=1 to run")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotEnvelope")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range envelopeSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
