//go:build !race

package shard

import (
	"runtime"
	"testing"
)

// TotalAlloc counts every allocation of the process, and under the race
// detector it can grow by kilobytes across a window that allocates
// nothing, so the byte bounds below run in the plain lane only.

// TestTableCountClaimsOnlyWhatItHolds: a table whose shard count claims
// more shards than follow is refused, and decoding it allocates in
// proportion to its length, not to the count (a shard takes one byte at
// the least and 16 in memory).
func TestTableCountClaimsOnlyWhatItHolds(t *testing.T) {
	data := claimingTable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTable(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("decoded")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*uint64(len(data)) {
		t.Errorf("a %d-byte table allocated %d bytes (bound %d)", len(data), grown, 4*len(data))
	}
}
