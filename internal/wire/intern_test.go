package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

// corpusFrames returns every frame of the checked-in FuzzDecode corpus that
// decodes, in file order.
func corpusFrames(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %d files, err %v", len(files), err)
	}
	var frames [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a []byte corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for rest := []byte(s); len(rest) > 0; {
			_, n, _, err := wire.ConsumeMessage(rest)
			if err != nil {
				break
			}
			frames = append(frames, rest[:n])
			rest = rest[n:]
		}
	}
	return frames
}

// TestInternedStreamMatchesOneShot: one long-lived Decoder — its intern
// table filling up and then hitting — must decode the fuzz corpus to exactly
// what the table-less one-shot parser yields. Every message is held until
// the whole stream is read, so a decoded string that aliased the pooled
// frame buffer, or an interned one that was later overwritten, would show.
func TestInternedStreamMatchesOneShot(t *testing.T) {
	frames := corpusFrames(t)
	const passes = 3 // the second and third see a warm table
	var stream bytes.Buffer
	for p := 0; p < passes; p++ {
		for _, f := range frames {
			stream.Write(f)
		}
	}
	dec := wire.NewDecoder(&stream)
	streamed := make([]wire.Message, passes*len(frames))
	for i := range streamed {
		if err := dec.Decode(&streamed[i]); err != nil {
			t.Fatalf("frame %d: Decode: %v", i, err)
		}
	}
	if dec.InternedIdents() == 0 {
		t.Error("the corpus interned nothing: the test exercises no table hit")
	}
	for i, got := range streamed {
		want, _, _, err := wire.ConsumeMessage(frames[i%len(frames)])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: stream decoder and one-shot parser disagree:\n stream:   %+v\n one-shot: %+v", i, got, want)
		}
	}
}

// nilFrame encodes a payload-less message, the smallest frame that carries
// two identifiers.
func nilFrame(t testing.TB, from, to string) []byte {
	t.Helper()
	frame, err := wire.AppendMessage(nil, &wire.Message{From: wire.NodeID(from), To: wire.NodeID(to)})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestInternTableIsBounded: a peer that never repeats a name cannot grow a
// Decoder. The table stays within its cap and the heap with it.
func TestInternTableIsBounded(t *testing.T) {
	const hostile = 100_000
	var stream bytes.Buffer
	for i := 0; i < hostile; i++ {
		stream.Write(nilFrame(t, fmt.Sprintf("node/%d", i), "g/0"))
	}
	dec := wire.NewDecoder(&stream)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var m wire.Message
	for i := 0; i < hostile; i++ {
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n := dec.InternedIdents(); n > wire.MaxIdents {
			t.Fatalf("frame %d: table holds %d identifiers, cap is %d", i, n, wire.MaxIdents)
		}
	}
	if m.From != wire.NodeID(fmt.Sprintf("node/%d", hostile-1)) || m.To != "g/0" {
		t.Errorf("last frame decoded to %+v", m)
	}
	// Generous: the table's worst case is MaxIdents*MaxIdentLen = 16 KiB of
	// strings plus the map.
	if after := heap(); after > before+(1<<20) {
		t.Errorf("heap grew by %d bytes over %d distinct identifiers", after-before, hostile)
	}
	runtime.KeepAlive(dec)
}

// TestInternSkipsLongStrings: a string longer than MaxIdentLen is decoded
// like any other but never enters the table.
func TestInternSkipsLongStrings(t *testing.T) {
	atCap := strings.Repeat("a", wire.MaxIdentLen)
	overCap := strings.Repeat("b", wire.MaxIdentLen+1)
	var stream bytes.Buffer
	stream.Write(nilFrame(t, atCap, atCap))
	stream.Write(nilFrame(t, overCap, overCap))
	dec := wire.NewDecoder(&stream)
	var m wire.Message
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if string(m.From) != atCap || dec.InternedIdents() != 1 {
		t.Errorf("%d-byte identifier: decoded %d bytes, table holds %d, want it interned",
			len(atCap), len(m.From), dec.InternedIdents())
	}
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if string(m.From) != overCap || string(m.To) != overCap || dec.InternedIdents() != 1 {
		t.Errorf("%d-byte string: decoded %d bytes, table holds %d, want it left out",
			len(overCap), len(m.From), dec.InternedIdents())
	}
}
