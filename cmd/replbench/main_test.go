package main

import (
	"testing"
	"time"
)

// TestCheckFlagsRejectsBadSampleSizes drives the flag check with each value
// that used to reach the experiments and panic there (makeslice with a
// negative capacity for -n -1), and with the defaults, which must pass.
func TestCheckFlagsRejectsBadSampleSizes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		warmup  int
		latency time.Duration
	}{
		{"n=0", 0, 5, 600 * time.Microsecond},
		{"n=-1", -1, 5, 600 * time.Microsecond},
		{"warmup=-1", 60, -1, 600 * time.Microsecond},
		{"latency=-1ms", 60, 5, -time.Millisecond},
	} {
		if err := checkFlags(tc.n, tc.warmup, tc.latency); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := checkFlags(60, 5, 600*time.Microsecond); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := checkFlags(1, 0, 0); err != nil {
		t.Errorf("smallest valid sizes rejected: %v", err)
	}
}
