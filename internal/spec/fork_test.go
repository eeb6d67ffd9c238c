package spec

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
)

// snapshots counts the images a test's manager had to take.
type snapshots struct {
	n    int
	fail bool
	size int // bytes an image holds; 0 = a few
}

func (s *snapshots) take() ([]byte, error) {
	if s.fail {
		return nil, errors.New("unserializable")
	}
	s.n++
	if s.size > 0 {
		return make([]byte, s.size), nil
	}
	return []byte("image"), nil
}

var (
	clsA  = []string{"a"}
	clsB  = []string{"b"}
	clsAB = []string{"a", "b"}
)

// hit runs one request through its whole life — speculate, finish, ordered
// dispatch at seq, resolve — and returns the fork it ran on, whether that
// fork had to be restored, and the verdict.
func hit(t *testing.T, m *Manager, snap *snapshots, id string, seq uint64, classes []string) (*Fork, bool, Outcome) {
	t.Helper()
	f, img := m.Speculate(id, classes, snap.take)
	if f == nil {
		t.Fatalf("%s: no fork", id)
	}
	m.Finish(id, "reply-"+id)
	m.Release(f)
	_, out := m.Dispatch(id, seq, classes)
	m.Resolve(id)
	return f, img != nil, out
}

func TestForkReusePerClass(t *testing.T) {
	type step struct {
		name    string
		do      func(m *Manager, snap *snapshots) // state before the probe
		classes []string                          // the probing speculation
		restore bool                              // must it restore a fork?
	}
	// Every case starts from one fork restored at position 0 that ran and
	// confirmed "r1" on class a at position 1.
	steps := []step{
		{"same class, nothing since", func(*Manager, *snapshots) {}, clsA, false},
		{"other class, untouched since the image", func(*Manager, *snapshots) {}, clsB, false},
		// Conservative, like Confirm: the set's highest floor (a's) is held
		// against its lowest version (b's, still the image's).
		{"both classes, at unequal versions", func(*Manager, *snapshots) {}, clsAB, true},
		{"both classes, at equal versions", func(m *Manager, snap *snapshots) {
			f, _ := m.Speculate("s", clsAB, snap.take)
			m.Finish("s", "r")
			m.Release(f)
			m.Dispatch("s", 2, clsAB)
		}, clsAB, false},
		{"class dispatched behind the fork's back", func(m *Manager, _ *snapshots) {
			m.TrackDispatch(2, clsA)
		}, clsA, true},
		{"other class unaffected by that dispatch", func(m *Manager, _ *snapshots) {
			m.TrackDispatch(2, clsA)
		}, clsB, false},
		{"global dispatch stales every class", func(m *Manager, _ *snapshots) {
			m.TrackDispatch(2, nil)
		}, clsB, true},
		{"dirty after a stale speculation", func(m *Manager, snap *snapshots) {
			f, _ := m.Speculate("s", clsB, snap.take)
			m.Finish("s", "r")
			m.Release(f)
			m.TrackDispatch(2, clsB)
			if _, out := m.Dispatch("s", 3, clsB); out != Stale {
				panic("want stale")
			}
			// A catch-up cannot clean it either: b is dirty on the only fork.
			if m.CanCatchUp(clsB, 2, 3) {
				panic("catch-up offered on a dirty class")
			}
		}, clsB, true},
		{"dirty after an abort", func(m *Manager, snap *snapshots) {
			f, _ := m.Speculate("s", clsB, snap.take)
			m.Abort("s")
			m.Release(f)
			if _, out := m.Dispatch("s", 2, clsB); out != Aborted {
				panic("want aborted")
			}
		}, clsB, true},
		{"dirty while another speculation is open", func(m *Manager, snap *snapshots) {
			f, _ := m.Speculate("s", clsB, snap.take)
			m.Finish("s", "r")
			m.Release(f)
		}, clsB, true},
		{"open speculation on b leaves a usable", func(m *Manager, snap *snapshots) {
			f, _ := m.Speculate("s", clsB, snap.take)
			m.Finish("s", "r")
			m.Release(f)
		}, clsA, false},
		{"classless needs the whole fork current", func(*Manager, *snapshots) {}, nil, true},
		{"mismatch drops the pool", func(m *Manager, _ *snapshots) { m.DropForks() }, clsA, true},
		{"reset drops the pool", func(m *Manager, _ *snapshots) { m.Reset(1) }, clsA, true},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			m, snap := NewManager(), &snapshots{}
			if _, restored, out := hit(t, m, snap, "r1", 1, clsA); !restored || out != Hit {
				t.Fatalf("first request: restored %v, outcome %v", restored, out)
			}
			st.do(m, snap)
			before := snap.n
			f, img := m.Speculate("probe", st.classes, snap.take)
			if f == nil {
				t.Fatal("no fork for the probe")
			}
			if (img != nil) != st.restore {
				t.Fatalf("restore = %v, want %v", img != nil, st.restore)
			}
			if !st.restore && snap.n != before {
				t.Fatal("reuse must not snapshot")
			}
		})
	}
}

func TestForkFollowsTheOrder(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	// A chain of hits on one class runs on one fork and one image.
	var first *Fork
	for i := 1; i <= 5; i++ {
		f, restored, out := hit(t, m, snap, "h"+strconv.Itoa(i), uint64(i), clsA)
		if out != Hit {
			t.Fatalf("request %d: %v", i, out)
		}
		if i == 1 {
			first = f
		} else if restored || f != first {
			t.Fatalf("request %d: restored %v, same fork %v", i, restored, f == first)
		}
	}
	if snap.n != 1 || len(m.forks) != 1 {
		t.Fatalf("%d snapshots, %d forks; want 1 and 1", snap.n, len(m.forks))
	}

	// Pending→Finish advances too: the order confirms while the handler runs.
	f, img := m.Speculate("p", clsA, snap.take)
	if f != first || img != nil {
		t.Fatal("pending speculation should reuse the fork")
	}
	if _, out := m.Dispatch("p", 6, clsA); out != Pending {
		t.Fatalf("outcome = %v, want Pending", out)
	}
	if f.serves(clsA, 6, 7) {
		t.Fatal("fork must not count as advanced before the handler finished")
	}
	if release, ok := m.Finish("p", "r"); !release || !ok {
		t.Fatal("Finish after Pending must release")
	}
	m.Release(f)
	m.Resolve("p")
	if _, restored, out := hit(t, m, snap, "h7", 7, clsA); restored || out != Hit {
		t.Fatalf("after deferred hit: restored %v, outcome %v", restored, out)
	}

	// A classless hit moves the whole fork.
	m2, snap2 := NewManager(), &snapshots{}
	hit(t, m2, snap2, "g1", 1, nil)
	if _, restored, out := hit(t, m2, snap2, "g2", 2, nil); restored || out != Hit {
		t.Fatalf("second classless request: restored %v, outcome %v", restored, out)
	}
	if _, restored, _ := hit(t, m2, snap2, "k3", 3, clsA); restored {
		t.Fatal("a class request after classless hits should reuse the fork")
	}
}

func TestVerdictOnRestoredForkDoesNotMoveIt(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	f, _ := m.Speculate("old", clsA, snap.take)
	m.Finish("old", "r")
	m.Release(f)
	// The fork is restored for another request before "old" is ordered.
	m.TrackDispatch(1, clsB)
	g, img := m.Speculate("new", clsB, snap.take)
	if g != f || img == nil {
		t.Fatal("the idle fork should have been restored")
	}
	m.Finish("new", "r")
	m.Release(g)
	if _, out := m.Dispatch("old", 2, clsA); out != Hit {
		t.Fatalf("old speculation: %v, want Hit (its reply is still right)", out)
	}
	// Its writes are gone from the fork, so a at position 2 is not on it.
	if f.serves(clsA, 2, 3) {
		t.Fatal("a verdict from before the restore advanced the fork")
	}
}

func TestCatchUp(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	f, _, _ := hit(t, m, snap, "r1", 1, clsA)

	// A request dispatched with no speculation: the fork was current for a.
	floor := m.Floor(clsA)
	if _, out := m.Dispatch("late", 2, clsA); out != Miss {
		t.Fatalf("outcome = %v, want Miss", out)
	}
	if !m.CanCatchUp(clsA, floor, 2) {
		t.Fatal("catch-up should be offered")
	}
	g := m.BindCatchUp(clsA, floor, 2)
	if g != f {
		t.Fatal("catch-up should bind the current fork")
	}
	if m.BindCatchUp(clsA, floor, 2) != nil {
		t.Fatal("a busy fork must not be bound twice")
	}
	if h, _ := m.Speculate("while-busy", clsA, nil); h != nil {
		t.Fatal("no idle fork, no snapshot: the speculation must be skipped")
	}
	m.CaughtUp(g, clsA, 2)
	if _, restored, out := hit(t, m, snap, "r3", 3, clsA); restored || out != Hit {
		t.Fatalf("after catch-up: restored %v, outcome %v", restored, out)
	}

	// A failed catch-up run leaves the class dirty.
	floor = m.Floor(clsA)
	m.Dispatch("late2", 4, clsA)
	g = m.BindCatchUp(clsA, floor, 4)
	m.Release(g)
	if m.CanCatchUp(clsA, floor, 4) {
		t.Fatal("catch-up offered on a dirty class")
	}

	// Out of order: the fork missed a dispatch of the class, so it no
	// longer holds what the next request ran against.
	m2, snap2 := NewManager(), &snapshots{}
	hit(t, m2, snap2, "r1", 1, clsB)
	m2.TrackDispatch(2, clsB)
	floor = m2.Floor(clsB)
	m2.Dispatch("late", 3, clsB)
	if m2.CanCatchUp(clsB, floor, 3) || m2.BindCatchUp(clsB, floor, 3) != nil {
		t.Fatal("catch-up on a stale fork")
	}
	// And a fork restored past the request already contains it.
	if f, img := m2.Speculate("fresh", clsB, snap2.take); f == nil || img == nil || m2.BindCatchUp(clsB, floor, 3) != nil {
		t.Fatal("a fork restored after the dispatch must not re-run it")
	}
}

func TestSpeculateSkipsRatherThanRunStale(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	hit(t, m, snap, "r1", 1, clsA)
	m.TrackDispatch(2, clsA)
	// Stale fork, stale image, state in motion (no snapshot function).
	if f, _ := m.Speculate("x", clsA, nil); f != nil {
		t.Fatal("speculation on a stale image must be skipped")
	}
	if m.Pending() != 0 {
		t.Fatal("a skipped speculation must not leave a record")
	}
	// The cached image still serves a class nobody touched since.
	m.DropForks()
	if f, img := m.Speculate("y", clsB, nil); f == nil || img == nil || snap.n != 1 {
		t.Fatal("the cached image is current for b and needs no snapshot")
	}
	// A state that cannot be serialized skips as well.
	bad := &snapshots{fail: true}
	if f, _ := m.Speculate("z", clsA, bad.take); f != nil {
		t.Fatal("failed snapshot must skip")
	}
	if m.Speculate("y", clsB, snap.take); m.Pending() != 1 {
		t.Fatal("duplicate id must be declined")
	}
}

func TestPoolGrowsOnlyWhileAllForksAreBusy(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	var held []*Fork
	for i := 0; i < maxForks+1; i++ {
		f, _ := m.Speculate("c"+strconv.Itoa(i), []string{"k" + strconv.Itoa(i)}, snap.take)
		if (f != nil) != (i < maxForks) {
			t.Fatalf("speculation %d: fork %v", i, f != nil)
		}
		if f != nil {
			held = append(held, f)
		}
	}
	if len(m.forks) != maxForks || snap.n != 1 {
		t.Fatalf("%d forks from %d snapshots; want %d from 1", len(m.forks), snap.n, maxForks)
	}
	for _, f := range held {
		m.Release(f)
	}
	// With idle forks around, a request no fork serves recycles one.
	m.TrackDispatch(1, clsA)
	if f, img := m.Speculate("d", clsA, snap.take); f == nil || img == nil || len(m.forks) != maxForks {
		t.Fatal("an idle fork should have been restored in place")
	}
	// A fork whose state could not be restored leaves the pool.
	f, _ := m.Speculate("e", clsB, snap.take)
	m.Discard(f)
	if len(m.forks) != maxForks-1 {
		t.Fatalf("%d forks after Discard", len(m.forks))
	}
}

// The snapshot Speculate is handed may release the caller's lock while it
// copies the state: a run that takes the last idle fork meanwhile keeps it,
// and the image is still the state's at the last dispatch.
func TestSnapshotMayReleaseTheLock(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	var held []*Fork
	for i := 0; i < maxForks; i++ {
		f, _ := m.Speculate("c"+strconv.Itoa(i), []string{"k" + strconv.Itoa(i)}, snap.take)
		held = append(held, f)
	}
	m.Release(held[0])
	m.TrackDispatch(1, clsA)
	var other *Fork
	unlocked := func() ([]byte, error) {
		other, _ = m.Speculate("other", []string{"k0"}, nil)
		return snap.take()
	}
	if f, _ := m.Speculate("x", clsA, unlocked); f != nil {
		t.Fatalf("got fork %p (the other run holds %p), want none: the pool is busy", f, other)
	}
	if other != held[0] || m.image.Seq != 1 {
		t.Fatalf("other run got %p (idle fork %p), image at %d; want the idle fork and position 1", other, held[0], m.image.Seq)
	}
}

// Restores are paid for in bytes copied: with a state of 1 MiB the first
// ones spend the burst, then a class no fork serves goes unspeculated — and
// unsnapshotted — until the dispatches in between have earned the next copy.
func TestCopyBudgetRationsRestores(t *testing.T) {
	m, snap := NewManager(), &snapshots{size: 1 << 20}
	seq := uint64(0)
	// stale dispatches class a behind every fork's back and asks for it again.
	stale := func(id string) *Fork {
		seq++
		m.TrackDispatch(seq, clsA)
		f, _ := m.Speculate(id, clsA, snap.take)
		if f != nil {
			m.Abort(id)
			m.Release(f)
			m.Resolve(id)
		}
		return f
	}
	restored := 0
	for stale("burst"+strconv.Itoa(restored)) != nil {
		if restored++; restored > 8 {
			t.Fatal("the budget never ran out")
		}
	}
	if restored < 2 || snap.n != restored {
		t.Fatalf("%d restores from %d snapshots before the budget ran out; want a burst of at least 2, one snapshot each", restored, snap.n)
	}
	if m.Pending() != 0 {
		t.Fatal("a denied speculation must not leave a record")
	}
	// A fork that serves the class is still handed out: reuse copies nothing.
	if f, img := m.Speculate("b", clsB, snap.take); f == nil || img != nil {
		t.Fatal("an overdrawn budget must not keep a current fork from being reused")
	}
	// Each restore costs 2 MiB (snapshot + copy into the fork): the next one
	// is due once the balance is back above zero, and from then on they come
	// one per 2 MiB / copyPerDispatch dispatches.
	denied := 0
	for stale("wait"+strconv.Itoa(denied)) == nil {
		if denied++; denied > 4<<20/copyPerDispatch {
			t.Fatal("the budget never recovered")
		}
	}
	before, period := snap.n, 2<<20/copyPerDispatch
	for i := 0; i < 4*period; i++ {
		stale("steady" + strconv.Itoa(i))
	}
	if got := snap.n - before; got < 3 || got > 5 {
		t.Fatalf("%d restores in %d dispatches, want one per %d", got, 4*period, period)
	}

	// A small state never meets the bound: every request may restore.
	m2, snap2 := NewManager(), &snapshots{size: 4 << 10}
	for i := 1; i <= 10_000; i++ {
		m2.TrackDispatch(uint64(i), clsA)
		id := "s" + strconv.Itoa(i)
		f, img := m2.Speculate(id, clsA, snap2.take)
		if f == nil || img == nil {
			t.Fatalf("request %d: a 4 KiB state was rationed", i)
		}
		m2.Abort(id)
		m2.Release(f)
		m2.Resolve(id)
	}
}

// The record table must not remember finished requests: one id string per
// request for the life of the replica is an unbounded leak.
func TestRecordsLeaveNothingBehind(t *testing.T) {
	m, snap := NewManager(), &snapshots{}
	cycle := func(i int) {
		id := "client/c0#" + strconv.Itoa(i) + "#0"
		f, _ := m.Speculate(id, clsA, snap.take)
		m.Finish(id, "r")
		m.Release(f)
		if _, out := m.Dispatch(id, uint64(i), clsA); out != Hit {
			t.Fatalf("cycle %d: %v", i, out)
		}
		m.Resolve(id)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 1; i <= 1000; i++ {
		cycle(i)
	}
	before := heap()
	for i := 1001; i <= 101000; i++ {
		cycle(i)
	}
	after := heap()
	if m.Pending() != 0 {
		t.Fatalf("%d open records", m.Pending())
	}
	// 10^5 retained ids would be over 3 MB.
	if after > before+256<<10 {
		t.Fatalf("heap grew %d KiB over 10^5 cycles", (after-before)>>10)
	}
	runtime.KeepAlive(m)
}
