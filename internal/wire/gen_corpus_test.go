package wire_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

// TestGenerateFuzzCorpus refreshes the checked-in FuzzDecode corpus with
// frames in the current binary format, and writes the same frames back to
// back as testdata/exemplars.frames, the golden frames
// TestExemplarFramesAreGolden holds the codec to. Run with
// REPLOBJ_GEN_CORPUS=1; it is a no-op otherwise.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REPLOBJ_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set REPLOBJ_GEN_CORPUS=1 to run")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var all []byte
	for i, m := range exemplarMessages() {
		bin, err := wire.AppendMessage(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("seed-bin-%02d", i), bin)
		all = append(all, bin...)
	}
	write("seed-stream", all)
	write("seed-non-minimal-header", nonMinimalHeaderFrame)
	if err := os.WriteFile(filepath.Join("testdata", "exemplars.frames"), all, 0o644); err != nil {
		t.Fatal(err)
	}
}
