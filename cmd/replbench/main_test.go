package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/bench"
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

// TestFiguresMatchGolden regenerates `replbench -exp all -n 20` — Table 1,
// the paper's figures and the ablations — and compares it with
// results/figures.golden. The virtual kernel runs one woken goroutine at a
// time, in wake order, so every table is a pure function of the code: a
// changed cell is a changed schedule. A change that means to move a figure
// rewrites the file (REPLOBJ_UPDATE_GOLDEN=1 go test -run
// TestFiguresMatchGolden ./cmd/replbench) and explains every changed cell.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure (seconds)")
	}
	cfg := bench.Defaults()
	cfg.PerClient = 20
	var got bytes.Buffer
	if _, err := writeAll(&got, cfg, false); err != nil {
		t.Fatal(err)
	}
	const golden = "../../results/figures.golden"
	if os.Getenv("REPLOBJ_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, bad := 0, 0; i < max(len(gl), len(wl)) && bad < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			bad++
			t.Errorf("%s:%d\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
