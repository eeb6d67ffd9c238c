//go:build !race

package replica

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// TotalAlloc counts every allocation of the process, and under the race
// detector it can grow by kilobytes across a window that allocates
// nothing, so the byte bounds below run in the plain lane only.

// TestEnvelopeCountsClaimOnlyWhatItHolds: an envelope whose count claims
// more rows or streams than follow is refused, and decoding it allocates
// in proportion to its length, not to the count (an entry is 11 bytes at
// the least and 128 in memory). TotalAlloc counts every goroutine of the
// process, and goroutines that earlier tests leave running would be
// counted against the decode (a full `go test ./...` once added 5.6 KiB to
// a 2.7 KiB decode), so the test measures in a fresh process: it runs the
// test binary again with only itself selected.
func TestEnvelopeCountsClaimOnlyWhatItHolds(t *testing.T) {
	if os.Getenv(freshProcessEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestEnvelopeCountsClaimOnlyWhatItHolds$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), freshProcessEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestEnvelopeCountsClaimOnlyWhatItHolds")) {
			t.Fatalf("in a fresh process: %v\n%s", err, out)
		}
		return
	}
	for name, data := range claimingEnvelopes() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeEnvelope(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*uint64(len(data)) {
			t.Errorf("%s: a %d-byte envelope allocated %d bytes (bound %d)", name, len(data), grown, 4*len(data))
		}
	}
}

// freshProcessEnv marks a test binary run again by a test that measures
// its allocations alone in the process.
const freshProcessEnv = "REPLOBJ_FRESH_PROCESS"
