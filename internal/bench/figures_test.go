package bench

import (
	"testing"
)

// These tests assert the paper's qualitative claims — who wins, by roughly
// what factor, where behaviour changes — on reduced sample sizes, so the
// reproduction in EXPERIMENTS.md is continuously verified.

func testCfg() Config {
	cfg := Defaults()
	cfg.PerClient = 8
	cfg.Warmup = 2
	return cfg
}

// series fetches a series or fails the test.
func series(t *testing.T, r Result, label string) Series {
	t.Helper()
	s, ok := r.Get(label)
	if !ok {
		t.Fatalf("%s: series %q missing", r.ID, label)
	}
	return s
}

// y returns the Y value at x or fails.
func y(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	v, ok := s.at(x)
	if !ok {
		t.Fatalf("series %s has no point at x=%v", s.Label, x)
	}
	return v
}

// linearIn asserts the series grows like n·base (serialized execution).
func linearIn(t *testing.T, s Series, base float64) {
	t.Helper()
	for _, p := range s.Points {
		want := p.X * base
		if p.Y < want*0.85 || p.Y > want*1.25 {
			t.Errorf("%s at %v clients: %.1f ms, want ≈ %.1f (linear)", s.Label, p.X, p.Y, want)
		}
	}
}

// flatNear asserts the series stays within lo..hi for all points.
func flatNear(t *testing.T, s Series, lo, hi float64) {
	t.Helper()
	for _, p := range s.Points {
		if p.Y < lo || p.Y > hi {
			t.Errorf("%s at %v clients: %.1f ms, want within [%.1f, %.1f] (flat)", s.Label, p.X, p.Y, lo, hi)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	res, err := Fig4(testCfg(), PatternA)
	if err != nil {
		t.Fatal(err)
	}
	// SAT serializes; MAT, LSA, PDS run the computations concurrently.
	linearIn(t, series(t, res, "SAT"), 100)
	flatNear(t, series(t, res, "MAT"), 100, 115)
	flatNear(t, series(t, res, "LSA"), 100, 115)
	flatNear(t, series(t, res, "PDS"), 100, 115)
}

func TestFig4bShape(t *testing.T) {
	res, err := Fig4(testCfg(), PatternB)
	if err != nil {
		t.Fatal(err)
	}
	linearIn(t, series(t, res, "SAT"), 100)
	flatNear(t, series(t, res, "MAT"), 100, 115)
	// LSA pays the mutex-table broadcast; still flat.
	flatNear(t, series(t, res, "LSA"), 100, 120)
	flatNear(t, series(t, res, "PDS"), 100, 120)
	// MAT is the superior variant (paper Section 5.3).
	if mat, lsa := y(t, series(t, res, "MAT"), 10), y(t, series(t, res, "LSA"), 10); mat > lsa {
		t.Errorf("MAT (%.1f) should not be slower than LSA (%.1f) on pattern b", mat, lsa)
	}
}

func TestFig4cShape(t *testing.T) {
	res, err := Fig4(testCfg(), PatternC)
	if err != nil {
		t.Fatal(err)
	}
	// MAT degenerates to SAT: both serialize fully.
	linearIn(t, series(t, res, "SAT"), 100)
	linearIn(t, series(t, res, "MAT"), 100)
	// LSA and PDS enable concurrency; with many clients LSA is superior
	// (collisions delay PDS rounds for the whole computation).
	lsa10, pds10, sat10 := y(t, series(t, res, "LSA"), 10), y(t, series(t, res, "PDS"), 10), y(t, series(t, res, "SAT"), 10)
	if lsa10 >= sat10/2 || pds10 >= sat10/2 {
		t.Errorf("LSA (%.1f) and PDS (%.1f) must beat serialized SAT (%.1f) clearly", lsa10, pds10, sat10)
	}
	if lsa10 >= pds10 {
		t.Errorf("with many clients LSA (%.1f) must beat PDS (%.1f) on pattern c", lsa10, pds10)
	}
}

func TestFig4dShape(t *testing.T) {
	res, err := Fig4(testCfg(), PatternD)
	if err != nil {
		t.Fatal(err)
	}
	linearIn(t, series(t, res, "SAT"), 100)
	linearIn(t, series(t, res, "MAT"), 100)
	// PDS is the most efficient algorithm for this pattern; LSA slightly
	// slower (paper Section 5.3).
	flatNear(t, series(t, res, "PDS"), 100, 115)
	flatNear(t, series(t, res, "LSA"), 100, 120)
	if pds10, lsa10 := y(t, series(t, res, "PDS"), 10), y(t, series(t, res, "LSA"), 10); pds10 > lsa10 {
		t.Errorf("PDS (%.1f) must not be slower than LSA (%.1f) on pattern d", pds10, lsa10)
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// SEQ grows with clients; SAT stays flat at 0ms nested duration.
	seq, sat := series(t, res, "SEQ"), series(t, res, "SAT")
	if g, f := y(t, seq, 10), y(t, seq, 1); g < 2*f {
		t.Errorf("SEQ should grow with clients: %v → %v", f, g)
	}
	flatNear(t, sat, 1, 6)
	// With a 2ms suspension at B, the multithreading benefit is large.
	seq2, sat2 := y(t, series(t, res, "SEQ(2ms)"), 10), y(t, series(t, res, "SAT(2ms)"), 10)
	if sat2 >= seq2 {
		t.Errorf("SAT(2ms)=%.1f must beat SEQ(2ms)=%.1f at 10 clients", sat2, seq2)
	}
}

func TestFig5bShape(t *testing.T) {
	cfg := testCfg()
	cfg.PerClient = 5
	res, err := Fig5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, sat, mat := series(t, res, "SEQ"), series(t, res, "SAT"), series(t, res, "MAT")
	lsa, pds := series(t, res, "LSA"), series(t, res, "PDS")
	for pi := 1; pi <= 6; pi++ {
		x := float64(pi)
		// SAT always beats SEQ (idle time of nested invocations utilized).
		if y(t, sat, x) >= y(t, seq, x) {
			t.Errorf("pattern %s: SAT (%.0f) must beat SEQ (%.0f)", Perms[pi-1], y(t, sat, x), y(t, seq, x))
		}
		// LSA and PDS are pattern-insensitive and far below SAT.
		if y(t, lsa, x) >= y(t, sat, x)/2 || y(t, pds, x) >= y(t, sat, x)/2 {
			t.Errorf("pattern %s: LSA/PDS must clearly beat SAT", Perms[pi-1])
		}
	}
	// The problematic MAT patterns are exactly NSC (3) and SCN (5): a state
	// update followed by a computation.
	good := (y(t, mat, 1) + y(t, mat, 4)) / 2 // NCS, CSN
	for _, bad := range []float64{3, 5} {
		if y(t, mat, bad) < 2.5*good {
			t.Errorf("MAT on %s: %.0f ms, want ≥ 2.5× its good patterns (%.0f)", Perms[int(bad)-1], y(t, mat, bad), good)
		}
	}
	for _, g := range []float64{1, 4} {
		if y(t, mat, g) > 1.6*y(t, lsa, g) {
			t.Errorf("MAT on %s should be near LSA: %.0f vs %.0f", Perms[int(g)-1], y(t, mat, g), y(t, lsa, g))
		}
	}
}

func TestFig6aShape(t *testing.T) {
	res, err := Fig6a(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	sat, mat, lsa := series(t, res, "SAT"), series(t, res, "MAT"), series(t, res, "LSA")
	// SAT and MAT scale linearly with consumers (one producer feeding all).
	for _, s := range []Series{sat, mat} {
		if g, f := y(t, s, 10), y(t, s, 1); g < 4*f {
			t.Errorf("%s should grow roughly linearly with consumers: %v → %v", s.Label, f, g)
		}
	}
	// LSA has a notable communication overhead over SAT.
	if l, s := y(t, lsa, 10), y(t, sat, 10); l <= s {
		t.Errorf("LSA (%.1f) must exceed SAT (%.1f) at 10 consumers", l, s)
	}
}

func TestFig6bShape(t *testing.T) {
	res, err := Fig6b(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// MAT (true multithreading + cheap notifications) is the best strategy
	// on the bounded buffer, and the SEQ polling fallback is the worst of
	// the SAT/MAT/SEQ trio.
	mat5, sat5, seq5 := y(t, series(t, res, "MAT"), 5), y(t, series(t, res, "SAT"), 5), y(t, series(t, res, "SEQ"), 5)
	if mat5 > sat5 {
		t.Errorf("MAT (%.1f) must not be slower than SAT (%.1f)", mat5, sat5)
	}
	// SEQ's polling is clearly worse than true multithreading (SEQ vs SAT
	// is within noise at small sample sizes, so compare against MAT).
	if seq5 <= 1.5*mat5 {
		t.Errorf("SEQ polling (%.1f) must clearly exceed MAT (%.1f)", seq5, mat5)
	}
}

func TestAblationYieldShape(t *testing.T) {
	res, err := AB4MATYield(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The yield remedy must break pattern d's serialization.
	plain, yielded := y(t, series(t, res, "MAT"), 10), y(t, series(t, res, "MAT+yield"), 10)
	if yielded >= plain/2 {
		t.Errorf("yield must at least halve MAT's pattern-d latency: %.0f vs %.0f", yielded, plain)
	}
}

func TestAblationReplyPolicyShape(t *testing.T) {
	res, err := AB3ReplyPolicy(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := series(t, res, "LSA")
	first, majority := y(t, s, 1), y(t, s, 2)
	if first >= majority {
		t.Errorf("First (%.2f) must hide LSA's follower lag vs Majority (%.2f)", first, majority)
	}
}

func TestAblationLSAPeriodShape(t *testing.T) {
	res, err := AB2LSAPeriod(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := series(t, res, "LSA")
	if short, long := y(t, s, 1), y(t, s, 50); long <= short {
		t.Errorf("a 50ms broadcast period (%.1f) must cost more than 1ms (%.1f)", long, short)
	}
}

func TestAblationPDSNestedShape(t *testing.T) {
	cfg := testCfg()
	cfg.PerClient = 5
	res, err := AB5PDSNested(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Strategy A (the paper's choice) wins on these patterns.
	a, b := series(t, res, "PDS/A"), series(t, res, "PDS/B")
	worseCount := 0
	for pi := 1; pi <= 6; pi++ {
		if y(t, a, float64(pi)) > y(t, b, float64(pi)) {
			worseCount++
		}
	}
	if worseCount > 2 {
		t.Errorf("strategy A lost %d/6 patterns to B; the paper's choice should mostly win", worseCount)
	}
}

func TestAblationsRunClean(t *testing.T) {
	cfg := testCfg()
	cfg.PerClient = 4
	for _, fn := range []func(Config) (Result, error){AB1PDS2, AB6PDSAssignment} {
		if _, err := fn(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAblationMATPredictShape(t *testing.T) {
	res, err := AB7MATPredict(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	plain, predicted := y(t, series(t, res, "MAT"), 10), y(t, series(t, res, "MAT+predict"), 10)
	if predicted >= plain*0.7 {
		t.Errorf("lock prediction must clearly reduce locker latency: %.1f vs %.1f", predicted, plain)
	}
}
