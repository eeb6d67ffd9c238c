// Command benchmark measures the replobj stack on the wall clock: the real
// runtime, loopback TCP, three replicas per group and min(nproc, 4)
// closed-loop clients, all inside one process. It is the ruler of ROADMAP
// item 2; README.md in this directory explains every choice.
//
//	bash benchmark/run.sh --workload counter-seq --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh -compare benchmark/out/setA benchmark/out/setB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var processStart = time.Now()

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full record of a run, written under -out: the result plus
// everything needed to tell where the numbers came from.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Provenance provenance         `json:"provenance"`
	WarmupOps  int                `json:"warmup_ops_per_client"`
	Samples    int                `json:"samples"`
	Error      string             `json:"error,omitempty"`
	Result     result             `json:"result"`
	Diagnostic map[string]float64 `json:"diagnostic"`
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

// sizing is how much work a run does. Real runs use scale 1; the smoke test
// divides every fixed count — warm-up invocations, probe iterations — by 200.
type sizing struct {
	measure time.Duration // measured phase (a traced run spends a quarter of it per phase)
	scale   int
}

func (z sizing) count(n int) int { return max(n/z.scale, 4) }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: counter-seq, locks-mat, kv-cc-spec or kv-sharded")
		seed    = flag.Int64("seed", 1, "seed of the generated requests (key and mutex choice)")
		seconds = flag.Int("seconds", 16, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for the run's report and span file")
		compare = flag.Bool("compare", false, "compare two directories of run reports: -compare setA setB")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two directories of run reports")
			os.Exit(2)
		}
		if err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need -workload <counter-seq|locks-mat|kv-cc-spec|kv-sharded> [-seed n] [-seconds n>=1] [-trace 0|1]")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(clientCount())

	rep := report{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Traced:     *trace == 1,
		Provenance: newProvenance(clientCount()),
		WarmupOps:  w.warmup,
		Diagnostic: map[string]float64{},
	}
	size := sizing{measure: time.Duration(*seconds) * time.Second, scale: 1}
	var err error
	if rep.Traced {
		err = runTraced(w, &rep, *outDir, size)
	} else {
		err = runEndToEnd(w, &rep, size)
	}
	if err != nil {
		rep.Error = err.Error()
		rep.Result.Correct = false
	}
	printReport(&rep)
	if werr := writeReport(&rep, *outDir); werr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", werr)
		os.Exit(1)
	}
	if err != nil {
		// A failed run prints no result line: nothing of it may be accepted.
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
		os.Exit(1)
	}
	line, merr := json.Marshal(rep.Result)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runEndToEnd is the untraced run: set-up, measured phase, correctness
// gate, then two more set-ups so setup_s can be a median.
func runEndToEnd(w *workload, rep *report, size sizing) error {
	clients, warmup := rep.Provenance.Clients, size.count(w.warmup)
	var setups []float64
	b, err := setUp(w, rep.Seed, clients, warmup, false)
	if err != nil {
		return err
	}
	setups = append(setups, time.Since(processStart).Seconds())
	p, err := b.measure(size.measure, nil, true)
	if err == nil {
		err = phaseErr(&p)
	}
	if err == nil {
		err = b.gate()
	}
	b.tearDown()
	rep.Result.Attempted, rep.Result.Failed = p.attempted, p.failed
	if err != nil {
		return err
	}
	for len(setups) < setupRepeats {
		t0 := time.Now()
		again, err := setUp(w, rep.Seed, clients, warmup, false)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = again.gate()
		again.tearDown()
		if err != nil {
			return err
		}
	}

	s := summarize(&p)
	ops := float64(p.ops())
	rep.Samples = s.samples
	rep.Result.Correct = !p.incorrect && p.failed == 0
	speed := p.machineSpeed()
	values := map[string]float64{
		"ops_per_s":       s.opsPerS / speed,
		"lat_p50_us":      s.p50us * speed,
		"lat_slow5pct_us": s.slow5us * speed,
		"allocs_per_op":   float64(p.mallocs) / ops,
		"alloc_kb_per_op": float64(p.allocBytes) / 1024 / ops,
		"rss_mb":          p.peakRSSMiB,
		"setup_s":         median(setups),
	}
	rep.Result.Metrics = map[string]value{}
	for _, m := range endToEnd {
		rep.Result.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	for i, v := range setups {
		rep.Diagnostic[fmt.Sprintf("setup_s.%d", i)] = v
	}
	phaseDiagnostics(rep.Diagnostic, &p, &s)
	if !rep.Result.Correct {
		return fmt.Errorf("%d of %d invocations failed", p.failed, p.attempted)
	}
	return nil
}

// phaseDiagnostics records the printed-but-ungated figures of a phase.
func phaseDiagnostics(d map[string]float64, p *phase, s *latencySummary) {
	ops := float64(p.ops())
	d["measured_s"] = p.wall.Seconds()
	d["machine.ref_ops_per_s"] = p.refRate
	d["raw.ops_per_s"] = s.opsPerS
	d["raw.ops_per_s_mean"] = s.opsPerSMean
	d["raw.lat_p50_us"] = s.p50us
	d["raw.lat_slow5pct_us"] = s.slow5us
	d["raw.lat_p99_us"] = s.p99us
	d["raw.lat_p999_us"] = s.p999us
	d["raw.lat_max_us"] = s.maxus
	d["process.cpu_us_per_op"] = float64(p.cpu.Microseconds()) / ops
	d["process.gc_pause_us_per_op"] = float64(p.gcPause.Microseconds()) / ops
	d["process.gc_cycles"] = float64(p.gcCycles)
	d["process.goroutines_peak"] = float64(p.goroutines)
	d["machine.steal_pct"] = p.stealPct
	d["process.spin_before_ms"] = p.spinBefore
	d["process.spin_after_ms"] = p.spinAfter
}

func printReport(rep *report) {
	fmt.Printf("workload %s seed %d seconds %d traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	pv := rep.Provenance
	fmt.Printf("nproc %d GOMAXPROCS %d clients %d %s\nrevision %s\n", pv.Nproc, pv.GOMAXPROCS, pv.Clients, pv.GoVersion, pv.GitRevision)
	fmt.Printf("warm-up %d invocations per client; measured: %d attempted, %d failed, %d latency samples\n",
		rep.WarmupOps, rep.Result.Attempted, rep.Result.Failed, rep.Samples)
	decls := endToEnd
	if rep.Traced {
		decls = perLayer
	}
	for _, m := range decls {
		if v, ok := rep.Result.Metrics[m.Name]; ok {
			fmt.Printf("  %-38s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	fmt.Println("diagnostic (not gated):")
	for _, k := range sortedKeys(rep.Diagnostic) {
		fmt.Printf("  %-38s %14.4f\n", k, rep.Diagnostic[k])
	}
}

func writeReport(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	kind := "e2e"
	if rep.Traced {
		kind = "traced"
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.seed%d.json", rep.Workload, kind, rep.Seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
