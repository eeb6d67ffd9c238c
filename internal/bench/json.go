package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"github.com/replobj/replobj/internal/client"
)

// Report is the document replbench -json writes: every result table in
// full, plus enough provenance — configuration, git revision, toolchain —
// to reproduce the numbers or compare them across commits.
type Report struct {
	GitRevision string       `json:"git_revision"`
	GoVersion   string       `json:"go_version"`
	Config      ReportConfig `json:"config"`
	Results     []Result     `json:"results"`
}

// ReportConfig is the JSON shape of Config (the Metrics sink is runtime
// state, not provenance, and is excluded).
type ReportConfig struct {
	PerClient       int    `json:"per_client"`
	Warmup          int    `json:"warmup"`
	Replicas        int    `json:"replicas"`
	OneWayLatencyUS int64  `json:"one_way_latency_us"`
	ReplyPolicy     string `json:"reply_policy"`
}

func policyName(p client.ReplyPolicy) string {
	switch p {
	case client.Majority:
		return "majority"
	case client.First:
		return "first"
	case client.All:
		return "all"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// gitRevision reads the VCS revision stamped into the binary at build time;
// "unknown" when built outside a checkout (e.g. straight `go test`).
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+dirty"
	}
	return rev
}

// WriteJSON writes the full result set to path as an indented JSON Report.
func WriteJSON(path string, cfg Config, results []Result) error {
	rep := Report{
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		Config: ReportConfig{
			PerClient:       cfg.PerClient,
			Warmup:          cfg.Warmup,
			Replicas:        cfg.Replicas,
			OneWayLatencyUS: cfg.Latency.Microseconds(),
			ReplyPolicy:     policyName(cfg.Policy),
		},
		Results: results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}
