package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/wire"
)

// corpusInput returns the []byte input of a FuzzDecode corpus file.
func corpusInput(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		tb.Fatalf("%s: not a one-input []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// nestedTagZeroFrame returns a client's Submit whose nested payload is tag
// 0 and a gob blob of its Request, as a build with the gob fallback wrote a
// nested payload without a codec.
func nestedTagZeroFrame(tb testing.TB) []byte {
	tb.Helper()
	gob.Register(replica.Request{})
	var blob bytes.Buffer
	var v any = request(func(*replica.Request) {})
	if err := gob.NewEncoder(&blob).Encode(&v); err != nil {
		tb.Fatal(err)
	}
	m := wire.Message{From: "client/c1", To: "g/0", Payload: gcs.Submit{Group: "g", Origin: "client/c1", Call: 7}}
	frame, err := wire.AppendMessage(nil, &m)
	if err != nil {
		tb.Fatal(err)
	}
	_, n := binary.Uvarint(frame)
	body := frame[n:]
	if body[len(body)-1] != 1 {
		tb.Fatalf("the Submit does not end in a nil payload's tag: %x", body)
	}
	body = append(bytes.Clone(body[:len(body)-1]), 0)
	body = binary.AppendUvarint(body, uint64(blob.Len()))
	body = append(body, blob.Bytes()...)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// tagZeroFrames returns, by name, frames that carry tag 0: a whole message
// as one gob stream, as builds with a gob fallback sent it (the gob twins
// of the checked-in corpus and of the retired frames), and a Submit whose
// nested payload is such a blob.
func tagZeroFrames(t *testing.T) map[string][]byte {
	t.Helper()
	cases := map[string][]byte{"Submit with a nested gob blob": nestedTagZeroFrame(t)}
	topLevel := func(name string, frame []byte) {
		if _, n := binary.Uvarint(frame); frame[n] != 0 {
			t.Fatalf("%s: frame tag %d, want 0", name, frame[n])
		}
		cases[name] = frame
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "seed-*gob-*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no gob twins in the corpus (%v)", err)
	}
	for _, path := range paths {
		topLevel(filepath.Base(path), corpusInput(t, path))
	}
	for _, file := range []struct {
		name string
		n    int
	}{{"retired-migrate-chunks.frames", 8}, {"retired-request-copies.frames", 4}, {"retired-text-ids.frames", 40}} {
		for i, frame := range readFrames(t, file.name, file.n) {
			if i%2 == 1 {
				topLevel(fmt.Sprintf("%s, gob twin %d", file.name, i/2), frame)
			}
		}
	}
	return cases
}

// afterGoodFrame returns a Decoder that has decoded a good frame, so that
// its cell and identifiers are in place, and reads frame next.
func afterGoodFrame(t *testing.T, frame []byte) *wire.Decoder {
	t.Helper()
	good, err := wire.AppendMessage(nil, &exemplarMessages()[0])
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(bytes.NewReader(append(good, frame...)))
	var m wire.Message
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("the good frame: %v", err)
	}
	dec.Release()
	return dec
}

// TestTagZeroFramesRefused: tag 0 is reserved. A frame that carries it is
// refused by both decoders like any unknown tag (what the refusal costs is
// held by TestTagZeroRefusalsAllocateInProportion).
func TestTagZeroFramesRefused(t *testing.T) {
	for name, frame := range tagZeroFrames(t) {
		if one, _, _, err := wire.ConsumeMessage(frame); err == nil {
			t.Errorf("%s: ConsumeMessage accepted tag 0: %+v", name, value(one))
		}
		var m wire.Message
		if err := afterGoodFrame(t, frame).Decode(&m); err == nil {
			t.Errorf("%s: Decode accepted tag 0: %+v", name, value(m))
		}
	}
}
