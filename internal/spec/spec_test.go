package spec

import "testing"

func TestHitWhenNoConflictingDispatch(t *testing.T) {
	m := NewManager()
	m.TrackDispatch(5, []string{"a"})
	if !m.Begin("x", 5, []string{"b"}) {
		t.Fatal("Begin declined")
	}
	if _, ok := m.Finish("x", "reply-x"); !ok {
		t.Fatal("Finish declined")
	}
	rep, out := m.Confirm("x", []string{"b"})
	if out != Hit {
		t.Fatalf("outcome = %v, want Hit", out)
	}
	if rep != "reply-x" {
		t.Fatalf("reply = %v", rep)
	}
	if got, rel, late := m.Resolve("x"); !rel || late || got != "reply-x" {
		t.Fatalf("Resolve = %v,%v,%v", got, rel, late)
	}
	if m.Pending() != 0 {
		t.Fatalf("records leak: %d", m.Pending())
	}
}

func TestStaleOnConflictingClass(t *testing.T) {
	m := NewManager()
	m.Begin("x", 3, []string{"a"})
	m.Finish("x", "r")
	m.TrackDispatch(4, []string{"a"}) // conflicts, after the fork base
	if _, out := m.Confirm("x", []string{"a"}); out != Stale {
		t.Fatalf("outcome = %v, want Stale", out)
	}
	if _, rel, late := m.Resolve("x"); rel || late {
		t.Fatal("stale record must not be released")
	}
}

func TestDisjointClassStaysValid(t *testing.T) {
	m := NewManager()
	m.Begin("x", 3, []string{"a"})
	m.Finish("x", "r")
	m.TrackDispatch(4, []string{"b"}) // disjoint class
	if _, out := m.Confirm("x", []string{"a"}); out != Hit {
		t.Fatal("disjoint dispatch must not invalidate")
	}
}

func TestGlobalDispatchInvalidatesAll(t *testing.T) {
	m := NewManager()
	m.Begin("x", 3, []string{"a"})
	m.Finish("x", "r")
	m.TrackDispatch(4, nil) // classless/global
	if _, out := m.Confirm("x", []string{"a"}); out != Stale {
		t.Fatal("global dispatch must invalidate every class")
	}
}

func TestClasslessSpeculationChecksMaxFloor(t *testing.T) {
	m := NewManager()
	m.Begin("x", 3, nil)
	m.Finish("x", "r")
	m.TrackDispatch(4, []string{"zz"})
	if _, out := m.Confirm("x", nil); out != Stale {
		t.Fatal("classless speculation conflicts with everything")
	}
	m2 := NewManager()
	m2.TrackDispatch(3, []string{"zz"})
	m2.Begin("y", 3, nil)
	m2.Finish("y", "r")
	if _, out := m2.Confirm("y", nil); out != Hit {
		t.Fatal("classless speculation at current base should hit")
	}
}

func TestAbortAndUnfinished(t *testing.T) {
	m := NewManager()
	m.Begin("x", 0, nil)
	m.Abort("x")
	if _, ok := m.Finish("x", "r"); ok {
		t.Fatal("Finish after Abort must decline")
	}
	if _, out := m.Confirm("x", nil); out != Aborted {
		t.Fatal("want Aborted")
	}
	m.Begin("y", 0, nil)
	if _, out := m.Confirm("y", nil); out != Pending {
		t.Fatal("unfinished valid speculation confirms Pending")
	}
	// Deferred hit: Finish after a Pending confirm asks the caller to
	// release the reply; Resolve then reports it released.
	if release, ok := m.Finish("y", "ry"); !ok || !release {
		t.Fatalf("Finish after Pending = release %v ok %v", release, ok)
	}
	if got, rel, _ := m.Resolve("y"); !rel || got != "ry" {
		t.Fatalf("Resolve after deferred hit = %v,%v", got, rel)
	}
	// Late speculation: ordered execution resolves before Finish lands.
	m.Begin("w", 0, nil)
	if _, out := m.Confirm("w", nil); out != Pending {
		t.Fatal("want Pending")
	}
	if _, rel, late := m.Resolve("w"); rel || !late {
		t.Fatal("unfinished confirmed record resolves late")
	}
	if _, ok := m.Finish("w", "r"); ok {
		t.Fatal("Finish after Resolve must decline")
	}
	if _, out := m.Confirm("zz", nil); out != Miss {
		t.Fatal("unknown id confirms Miss")
	}
}

func TestBeginDeclinesDuplicatesAndOverflow(t *testing.T) {
	m := NewManager()
	if !m.Begin("x", 0, nil) || m.Begin("x", 0, nil) {
		t.Fatal("duplicate Begin must decline")
	}
	for i := 0; m.Pending() < maxRecords; i++ {
		m.Begin(string(rune('A'+i%26))+string(rune('0'+i%10))+itoa(i), 0, nil)
	}
	// At the cap, Begin evicts the oldest unconfirmed record ("x") and
	// proceeds — never-ordered speculations must not wedge the window.
	if !m.Begin("overflow", 0, nil) {
		t.Fatal("Begin at cap should evict a dead record and proceed")
	}
	if m.Pending() != maxRecords {
		t.Fatalf("eviction should keep the cap: %d", m.Pending())
	}
	if _, out := m.Confirm("x", nil); out != Miss {
		t.Fatal("oldest record should have been evicted")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestReset(t *testing.T) {
	m := NewManager()
	m.TrackDispatch(4, []string{"a"})
	m.SetImage([]byte("s"), false, 4)
	m.Begin("x", 4, []string{"a"})
	m.Reset(10)
	if m.image != nil {
		t.Fatal("Reset must drop the image")
	}
	if m.Pending() != 0 {
		t.Fatal("Reset must drop records")
	}
	// All floors raised to the reset position: a fork from below never hits.
	m.Begin("y", 4, []string{"zz"})
	m.Finish("y", "r")
	if _, out := m.Confirm("y", []string{"zz"}); out != Stale {
		t.Fatal("fork below the reset floor must be stale")
	}
	// A fork at the reset position hits again.
	m.Begin("z", 10, []string{"zz"})
	m.Finish("z", "r")
	if _, out := m.Confirm("z", []string{"zz"}); out != Hit {
		t.Fatal("fork at the reset floor should hit")
	}
}
