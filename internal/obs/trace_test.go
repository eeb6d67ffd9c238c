package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func record(t *Trace, n int, perturb int) {
	for i := 0; i < n; i++ {
		subj := "c" + strconv.Itoa(i%3)
		if i == perturb {
			subj = "intruder"
		}
		t.Record("mutex/state", KindGrant, subj, "")
		t.Record("mutex/state", KindUnlock, subj, "")
	}
}

func TestTraceDigestsMatch(t *testing.T) {
	a, b := NewTrace(0), NewTrace(0)
	record(a, 50, -1)
	record(b, 50, -1)
	ca, da := a.Digest("mutex/state")
	cb, db := b.Digest("mutex/state")
	if ca != 100 || cb != 100 {
		t.Fatalf("counts = %d, %d, want 100", ca, cb)
	}
	if da != db || da == 0 {
		t.Fatalf("digests differ: %016x vs %016x", da, db)
	}
	if d := FirstDivergence(a.Snapshot(), b.Snapshot()); d != nil {
		t.Fatalf("unexpected divergence: %v", d)
	}
}

func TestTraceDivergencePosition(t *testing.T) {
	a, b := NewTrace(0), NewTrace(0)
	record(a, 50, -1)
	record(b, 50, 7) // b's 8th grant goes to a different thread
	d := FirstDivergence(a.Snapshot(), b.Snapshot())
	if d == nil {
		t.Fatal("divergence not detected")
	}
	// Grant i is at stream position 2i.
	if d.Stream != "mutex/state" || d.Pos != 14 {
		t.Fatalf("divergence = %v, want stream mutex/state pos 14", d)
	}
	if d.A == nil || d.B == nil || d.A.Kind != KindGrant || d.B.Subject != "intruder" {
		t.Fatalf("divergence events wrong: %v", d)
	}
	if !strings.Contains(d.String(), "position 14") {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestTracePrefixToleratesLag(t *testing.T) {
	a, b := NewTrace(0), NewTrace(0)
	record(a, 50, -1)
	record(b, 30, -1) // b lags (e.g. an LSA follower) but agrees on its prefix
	if d := FirstDivergence(a.Snapshot(), b.Snapshot()); d != nil {
		t.Fatalf("lagging prefix flagged as divergence: %v", d)
	}
	// A stream only one side has is not a divergence either.
	a.Record("rounds", KindRound, "", "1")
	if d := FirstDivergence(a.Snapshot(), b.Snapshot()); d != nil {
		t.Fatalf("one-sided stream flagged: %v", d)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 20; i++ {
		tr.Record("s", KindExec, strconv.Itoa(i), "")
	}
	snap := tr.Snapshot()["s"]
	if snap.Count != 20 {
		t.Fatalf("count = %d", snap.Count)
	}
	if len(snap.Events) != 8 {
		t.Fatalf("retained = %d, want 8", len(snap.Events))
	}
	if snap.Events[0].Pos != 12 || snap.Events[7].Pos != 19 {
		t.Fatalf("retained window = [%d, %d], want [12, 19]",
			snap.Events[0].Pos, snap.Events[7].Pos)
	}
	// The digest still covers the full history: an identical trace without
	// eviction has the same digest.
	full := NewTrace(64)
	for i := 0; i < 20; i++ {
		full.Record("s", KindExec, strconv.Itoa(i), "")
	}
	if _, d1 := tr.Digest("s"); true {
		if _, d2 := full.Digest("s"); d1 != d2 {
			t.Fatalf("digest depends on retention: %016x vs %016x", d1, d2)
		}
	}
}

func TestTraceEvictedDivergenceReported(t *testing.T) {
	// Diverge early, then evict the diverging events: the comparator can no
	// longer name the exact event but must still report a divergence.
	a, b := NewTrace(4), NewTrace(4)
	for i := 0; i < 30; i++ {
		a.Record("s", KindExec, strconv.Itoa(i), "")
		subj := strconv.Itoa(i)
		if i == 2 {
			subj = "x"
		}
		b.Record("s", KindExec, subj, "")
	}
	d := FirstDivergence(a.Snapshot(), b.Snapshot())
	if d == nil {
		t.Fatal("evicted divergence not detected")
	}
	if d.A != nil || d.B != nil {
		t.Fatalf("expected evicted (nil) events, got %v", d)
	}
}

func TestTraceKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindGrant: "grant", KindUnlock: "unlock", KindWait: "wait",
		KindWake: "wake", KindExec: "exec", KindRound: "round", KindView: "view",
		Kind(0): "?",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record("s"+strconv.Itoa(w%2), KindGrant, "t", "")
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap["s0"].Count+snap["s1"].Count != 8000 {
		t.Fatalf("lost events: %d + %d", snap["s0"].Count, snap["s1"].Count)
	}
}

func TestTraceDump(t *testing.T) {
	tr := NewTrace(16)
	tr.Record("mutex/state", KindGrant, "c0/1", "")
	tr.Record("order", KindExec, "c0/1", "seq=1")
	var b strings.Builder
	tr.Dump(&b, "", 0)
	out := b.String()
	for _, want := range []string{"stream mutex/state count=1", "grant c0/1", "exec c0/1 seq=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	tr.Dump(&b, "order", 0)
	if strings.Contains(b.String(), "mutex/state") {
		t.Errorf("filter ignored:\n%s", b.String())
	}
}

// recordRounds records rounds events on each of streams mutex streams,
// round by round; at (perturbRound, perturbStream) the grant goes to an
// intruder.
func recordRounds(t *Trace, streams, rounds, perturbRound, perturbStream int) {
	for r := 0; r < rounds; r++ {
		for s := 0; s < streams; s++ {
			subj := "c" + strconv.Itoa(r%7)
			if r == perturbRound && s == perturbStream {
				subj = "intruder"
			}
			t.Record("mutex/m"+strconv.Itoa(s), KindGrant, subj, "")
		}
	}
}

// TestTraceRetentionIsPerTrace: what a trace retains is bounded by retain,
// not by retain times the number of streams — and every stream still has
// its full count and digest, and whatever it retains is its latest events.
func TestTraceRetentionIsPerTrace(t *testing.T) {
	const streams, rounds, retain = 1000, 100, 512
	bounded, full := NewTrace(retain), NewTrace(streams*rounds)
	var retained Gauge
	bounded.ExportRetained(&retained)
	recordRounds(bounded, streams, rounds, -1, -1)
	recordRounds(full, streams, rounds, -1, -1)
	snap, ref := bounded.Snapshot(), full.Snapshot()
	total := 0
	for name, want := range ref {
		got := snap[name]
		if got.Count != want.Count || got.Digest != want.Digest || len(want.Events) != rounds {
			t.Fatalf("%s: count %d digest %x, unbounded trace has count %d digest %x (%d events)",
				name, got.Count, got.Digest, want.Count, want.Digest, len(want.Events))
		}
		total += len(got.Events)
		for i, e := range got.Events {
			if pos := got.Count - uint64(len(got.Events)-i); e.Pos != pos || e != want.Events[pos] {
				t.Fatalf("%s: retained event %d is %+v, want the stream's event %d %+v", name, i, e, pos, want.Events[pos])
			}
		}
	}
	if total != retain || retained.Value() != retain {
		t.Errorf("%d events retained over %d streams (gauge %d), want %d", total, streams, retained.Value(), retain)
	}
	if d := FirstDivergence(snap, ref); d != nil {
		t.Errorf("bounded and unbounded trace of one history diverge: %v", d)
	}

	// A divergence among the retained events is named with both of them...
	recent := NewTrace(retain)
	recordRounds(recent, streams, rounds, rounds-1, streams-3)
	d := FirstDivergence(snap, recent.Snapshot())
	if d == nil || d.Stream != "mutex/m"+strconv.Itoa(streams-3) || d.Pos != rounds-1 || d.A == nil || d.B == nil || d.B.Subject != "intruder" {
		t.Errorf("recent divergence reported as %v", d)
	}
	// ...and one evicted since is still reported, without them.
	early := NewTrace(retain)
	recordRounds(early, streams, rounds, 2, 3)
	d = FirstDivergence(snap, early.Snapshot())
	if d == nil || d.Stream != "mutex/m3" || d.A != nil || d.B != nil {
		t.Errorf("evicted divergence reported as %v", d)
	}

	// A trace restored from exported stream states retains nothing, forgets
	// its own streams and continues every digest where the donor's stands.
	restored := NewTrace(retain)
	restored.ExportRetained(&retained)
	restored.Record("stale", KindExec, "x", "")
	restored.RestoreStreams(bounded.ExportStreams())
	if retained.Value() != 0 {
		t.Errorf("restored trace retains %d events", retained.Value())
	}
	bounded.Record("mutex/m5", KindUnlock, "c1", "")
	restored.Record("mutex/m5", KindUnlock, "c1", "")
	after := restored.Snapshot()
	if _, kept := after["stale"]; kept || len(after) != streams {
		t.Errorf("restored trace has %d streams (stale kept: %v), want %d", len(after), kept, streams)
	}
	bc, bd := bounded.Digest("mutex/m5")
	if got := after["mutex/m5"]; got.Count != bc || got.Digest != bd || len(got.Events) != 1 || got.Events[0].Pos != rounds {
		t.Errorf("restored stream continues at %+v, the donor is at count %d digest %x", got, bc, bd)
	}
}

// TestStreamHandleSurvivesRestore: a handle taken before a snapshot install
// records into the restored stream — RestoreStreams resets streams in place
// — and a stream the donor does not name restarts empty, unknown to readers
// until it is recorded into again.
func TestStreamHandleSurvivesRestore(t *testing.T) {
	donor := NewTrace(0)
	for i := 0; i < 5; i++ {
		donor.Record("order", KindExec, "c0#"+strconv.Itoa(i), strconv.Itoa(i))
	}
	tr := NewTrace(0)
	order, stale := tr.Stream("order"), tr.Stream("mutex/stale")
	order.Record(KindExec, "own-history", "1")
	stale.Record(KindGrant, "c0", "")

	tr.RestoreStreams(donor.ExportStreams())
	order.RecordN(KindExec, "c0#5", 5)
	donor.Record("order", KindExec, "c0#5", "5")
	dc, dd := donor.Digest("order")
	if c, d := tr.Digest("order"); c != dc || d != dd || dc != 6 {
		t.Errorf("old handle after restore: count %d digest %x, donor folded once more has count %d digest %x", c, d, dc, dd)
	}

	if c, d := tr.Digest("mutex/stale"); c != 0 || d != 0 {
		t.Errorf("stream the donor does not name: count %d digest %x after restore", c, d)
	}
	if _, ok := tr.ExportStreams()["mutex/stale"]; ok {
		t.Error("empty stream exported")
	}
	if _, ok := tr.Snapshot()["mutex/stale"]; ok {
		t.Error("empty stream in the snapshot")
	}
	stale.Record(KindGrant, "c1", "")
	fresh := NewTrace(0)
	fresh.Record("mutex/stale", KindGrant, "c1", "")
	_, fd := fresh.Digest("mutex/stale")
	if st := tr.ExportStreams()["mutex/stale"]; st.Count != 1 || st.Digest != fd {
		t.Errorf("restarted stream exports %+v, a fresh stream's first event has digest %x", st, fd)
	}
}

// TestQuickNumericDetailMatchesString: RecordN(kind, subject, n) and
// Record(kind, subject, FormatUint(n)) are one event — equal digests, equal
// rendered Detail — so a trace recorded with numeric details compares by
// FirstDivergence against one recorded with strings.
func TestQuickNumericDetailMatchesString(t *testing.T) {
	num, str := NewTrace(0), NewTrace(0)
	ns, ss := num.Stream("s"), str.Stream("s")
	f := func(kind uint8, subject string, n uint64, small uint8, call uint32) bool {
		for _, v := range []uint64{n, uint64(small)} {
			ns.RecordN(Kind(kind), subject, v)
			ss.Record(Kind(kind), subject, strconv.FormatUint(v, 10))
			// A client's call as the subject: RecordCall folds the text.
			c := uint64(call) + 1
			ns.RecordCall(Kind(kind), subject, c, v)
			ss.Record(Kind(kind), subject+"#"+strconv.FormatUint(c, 10), strconv.FormatUint(v, 10))
		}
		a, b := num.Snapshot()["s"], str.Snapshot()["s"]
		return a.Digest == b.Digest && a.Events[len(a.Events)-1] == b.Events[len(b.Events)-1] &&
			FirstDivergence(num.Snapshot(), str.Snapshot()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, n := range []uint64{0, 9, 10, math.MaxUint64} {
		ns.RecordN(KindExec, "edge", n)
		ss.Record(KindExec, "edge", strconv.FormatUint(n, 10))
		ns.RecordCall(KindExec, "client/c", max(n, 1), n)
		ss.Record(KindExec, "client/c#"+strconv.FormatUint(max(n, 1), 10), strconv.FormatUint(n, 10))
	}
	if d := FirstDivergence(num.Snapshot(), str.Snapshot()); d != nil {
		t.Errorf("numeric and string traces diverge: %v", d)
	}
}

// BenchmarkTraceRecord is the schedule trace's microbench: one event into a
// warm trace. by-name builds the stream's name and looks it up for every
// event, as the scheduler hooks did before they held handles.
func BenchmarkTraceRecord(b *testing.B) {
	b.Run("by-name", func(b *testing.B) {
		tr := NewTrace(0)
		mutexes := []string{"m00", "m01", "m02", "m03"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Record("mutex/"+mutexes[i&3], KindGrant, "c0", "")
		}
	})
	b.Run("handle", func(b *testing.B) {
		s := NewTrace(0).Stream("mutex/state")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Record(KindGrant, "c0", "")
		}
	})
	b.Run("handle-numeric", func(b *testing.B) {
		s := NewTrace(0).Stream("order")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.RecordN(KindExec, "c0#1", uint64(i))
		}
	})
}
