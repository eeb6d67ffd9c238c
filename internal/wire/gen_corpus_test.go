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
// frames in the current binary format. Run with REPLOBJ_GEN_CORPUS=1; it is
// a no-op otherwise.
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
		gobbed, err := wire.AppendMessageGob(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("seed-gob-%02d", i), gobbed)
	}
	write("seed-stream", all)
	write("seed-non-minimal-header", nonMinimalHeaderFrame)
}
