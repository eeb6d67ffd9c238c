package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestQuantileAndSlowMeanOnKnownVectors(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.25, 3.25}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// Slowest 5 % of 1..100 is 96..100; of 1..10 it is the single slowest.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := slowMean(hundred, 0.05); got != 98 {
		t.Errorf("slowMean(1..100, 5%%) = %v, want 98", got)
	}
	if got := slowMean(v, 0.05); got != 10 {
		t.Errorf("slowMean(1..10, 5%%) = %v, want 10", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5}); q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3 1 4 1 5) = %v %v %v", q1, q2, q3)
	}
}

func TestSummarizeWindows(t *testing.T) {
	// Three one-second windows with 2, 4 and 3 completions; the trailing
	// sample lands past the last whole window and only counts in the pool.
	p := phase{length: 3 * time.Second}
	for _, endMs := range []uint32{100, 900, 1100, 1200, 1300, 1400, 2100, 2500, 2900, 3001} {
		p.samples = append(p.samples, []sample{{endUs: endMs * 1000, durNs: endMs * 1000}})
	}
	p.attempted, p.wall = 10, 3*time.Second+time.Millisecond
	s := summarize(&p)
	if s.samples != 10 || s.opsPerS != 3 {
		t.Errorf("samples %d ops_per_s %v, want 10 and the median window 3", s.samples, s.opsPerS)
	}
	if want := 1400.0; s.slow5us != want { // window maxima 900, 1400, 2900 → median
		t.Errorf("slow5us = %v, want %v", s.slow5us, want)
	}
}

// requestStream renders the first n requests of every client of a workload.
func requestStream(w *workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	const clients = 2
	d := &deployment{}
	for c := 0; c < clients; c++ {
		sc := w.newScript(seed, c, clients, d)
		for i := 0; i < n; i++ {
			r := sc.next()
			buf.WriteString(r.method)
			buf.WriteByte(0)
			buf.WriteString(r.shardKey)
			buf.WriteByte(0)
			buf.Write(r.args)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b, c := requestStream(w, 7, 300), requestStream(w, 7, 300), requestStream(w, 8, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", w.name)
		}
	}
}

func TestLCGJumpMatchesLoop(t *testing.T) {
	for _, x := range []uint64{0, 1, golden, math.MaxUint64} {
		if lcgRun(x) != lcgJump(x) {
			t.Fatalf("lcgJump(%x) != lcgRun(%x)", x, x)
		}
	}
}

func TestKVSnapshotRoundTrip(t *testing.T) {
	var a, b kvState
	for _, k := range []int{0, 77, kvKeys - 1} {
		a.vals[k] = make([]byte, kvValSize)
		kvValue(a.vals[k], k, uint32(k)+3)
	}
	img, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(img); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.vals, b.vals) {
		t.Fatal("restored state differs from the snapshotted one")
	}
	if v, err := kvVersion(b.vals[77], 77); err != nil || v != 80 {
		t.Fatalf("kvVersion = %d, %v; want 80", v, err)
	}
	if _, err := kvVersion(b.vals[77], 78); err == nil {
		t.Fatal("kvVersion accepted a value of another key")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the binary %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the binary %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if got := doc.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the binary %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the binary %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the binary %+v", i, got, m)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at 1/200 of its fixed counts
// with a short measured phase — untraced and traced — through the whole
// correctness gate, and checks that exactly the declared metrics come out,
// all finite.
func TestSmokeEveryWorkload(t *testing.T) {
	size := sizing{measure: 200 * time.Millisecond, scale: 200}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := report{Workload: w.name, Seed: 5, Traced: traced,
				Provenance: provenance{Clients: 2}, Diagnostic: map[string]float64{}}
			var err error
			decls := endToEnd
			if traced {
				decls = perLayer
				err = runTraced(w, &rep, out, size)
			} else {
				err = runEndToEnd(w, &rep, size)
			}
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			if !rep.Result.Correct || rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced,
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
			}
			if len(rep.Result.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rep.Result.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := rep.Result.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (emitted %v)", w.name, traced, d.Name, v, ok)
				}
			}
			if traced {
				if fi, err := os.Stat(out + "/" + w.name + ".spans.json"); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file missing or empty: %v", w.name, err)
				}
			}
		}
	}
}
