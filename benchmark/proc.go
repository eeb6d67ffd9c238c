package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // diagnostic only; Getrusage(RUSAGE_SELF) cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuJiffies reads the machine-wide CPU counters of /proc/stat: total
// jiffies and the share the hypervisor gave to other guests (steal).
func cpuJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0 // diagnostic only
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

var spinSink uint64

// spinMillis times a fixed ALU loop — the noise canary. It runs right
// before and right after a measured phase, so a slow machine shows up as a
// slow canary rather than being mistaken for a slow program.
func spinMillis() float64 {
	const steps = 40_000_000
	t0 := time.Now()
	x := uint64(t0.UnixNano()) | 1
	for i := 0; i < steps; i++ {
		x = x*lcgA + lcgC
	}
	spinSink += x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// provenance stamps a run: where the numbers came from.
type provenance struct {
	Nproc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	Clients     int    `json:"clients"`
}

// gitRevision resolves the source revision: build info first (go build
// stamps it inside a git checkout), then `git rev-parse`. When neither
// resolves it says so instead of a silent "unknown".
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev + " (git rev-parse; working tree state not recorded)"
		}
	}
	return "unresolved: no vcs stamp in the build info and `git rev-parse HEAD` failed (not a git checkout)"
}

func newProvenance(clients int) provenance {
	return provenance{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
		Clients:     clients,
	}
}
