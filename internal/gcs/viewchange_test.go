package gcs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// TestLastSeenKeepsOnlyMembers: submits from 10 000 client origins leave
// the failure detector a row per group member at most — a client's sign of
// life is never read, and a long-lived member hears a new client name per
// client process.
func TestLastSeenKeepsOnlyMembers(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		for i := range 10000 {
			origin := wire.ClientID(fmt.Sprint("c", i))
			h.members[0].Handle(origin, Submit{Group: h.group, Origin: origin, Call: 1, Payload: appMsg{Body: "x"}})
		}
		take(t, h.rt, h.members[2], 10000)
		h.rt.Lock()
		defer h.rt.Unlock()
		for _, m := range h.members {
			if n := len(m.lastSeen); n > len(m.cfg.Members) {
				t.Errorf("%s keeps %d lastSeen rows for a group of %d", m.cfg.Self, n, len(m.cfg.Members))
			}
		}
	})
}

// takeWithViews reads deliveries until n app messages have arrived,
// returning app ids and the views announced along the way.
func takeWithViews(t *testing.T, m *Member, n int) (app []string, views []View) {
	t.Helper()
	for len(app) < n {
		d, ok, timedOut := m.DeliverTimeout(10 * time.Second)
		if timedOut {
			t.Fatalf("timed out after %d/%d app deliveries (views so far: %v)", len(app), n, views)
		}
		if !ok {
			t.Fatalf("stream closed after %d/%d", len(app), n)
		}
		if d.NewView != nil {
			views = append(views, *d.NewView)
			continue
		}
		if d.Payload == nil {
			continue
		}
		app = append(app, d.ID)
	}
	return app, views
}

func TestViewChangeOnFollowerCrash(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "before", "x")
		// Let traffic establish liveness, then crash a follower.
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[1])
		// Wait for suspicion and view change, then submit again.
		h.rt.Sleep(500 * time.Millisecond)
		h.submitFromClient(cl, "after", "x")

		for _, idx := range []int{0, 2} {
			app, views := takeWithViews(t, h.members[idx], 2)
			if !reflect.DeepEqual(app, []string{"before", "after"}) {
				t.Errorf("member %d app stream = %v", idx, app)
			}
			if len(views) == 0 {
				t.Fatalf("member %d saw no view change", idx)
			}
			v := views[len(views)-1]
			want := []wire.NodeID{h.ids[0], h.ids[2]}
			if !reflect.DeepEqual(v.Members, want) {
				t.Errorf("member %d final view = %v, want members %v", idx, v, want)
			}
			if v.Sequencer() != h.ids[0] {
				t.Errorf("sequencer = %v, want %v (unchanged)", v.Sequencer(), h.ids[0])
			}
		}
	})
}

func TestViewChangeOnSequencerCrashElectsNext(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "before", "x")
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[0])
		h.rt.Sleep(800 * time.Millisecond)
		h.submitFromClient(cl, "after", "x")

		var streams [][]string
		for _, idx := range []int{1, 2} {
			app, views := takeWithViews(t, h.members[idx], 2)
			streams = append(streams, app)
			if len(views) == 0 {
				t.Fatalf("member %d saw no view change after sequencer crash", idx)
			}
			v := views[len(views)-1]
			if v.Sequencer() != h.ids[1] {
				t.Errorf("member %d: new sequencer = %v, want %v", idx, v.Sequencer(), h.ids[1])
			}
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Errorf("survivors disagree: %v vs %v", streams[0], streams[1])
		}
		if !reflect.DeepEqual(streams[0], []string{"before", "after"}) {
			t.Errorf("stream = %v, want [before after]", streams[0])
		}
	})
}

func TestSubmitDuringSequencerOutageIsRecovered(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "m0", "x")
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[0])
		// Submitted while the old sequencer is dead but before anyone
		// suspects it: the submit reaches the followers' caches and must be
		// ordered by the new sequencer after the view change.
		h.submitFromClient(cl, "m1-during-outage", "x")
		h.rt.Sleep(800 * time.Millisecond)
		h.submitFromClient(cl, "m2", "x")

		app, _ := takeWithViews(t, h.members[2], 3)
		want := []string{"m0", "m1-during-outage", "m2"}
		if !reflect.DeepEqual(app, want) {
			t.Errorf("stream = %v, want %v", app, want)
		}
	})
}

func TestCascadingCrashesLeaveSingleton(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "a", "x")
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[0])
		h.rt.Sleep(800 * time.Millisecond)
		h.net.Crash(h.ids[1])
		h.rt.Sleep(800 * time.Millisecond)
		h.submitFromClient(cl, "b", "x")

		app, views := takeWithViews(t, h.members[2], 2)
		if !reflect.DeepEqual(app, []string{"a", "b"}) {
			t.Errorf("stream = %v", app)
		}
		final := views[len(views)-1]
		if len(final.Members) != 1 || final.Sequencer() != h.ids[2] {
			t.Errorf("final view = %v, want singleton %v", final, h.ids[2])
		}
	})
}

func TestViewChangeDeterministicIDs(t *testing.T) {
	v := View{Epoch: 3, Members: []wire.NodeID{"g/1", "g/2"}}
	if got := viewEventID(v); got != "viewevent/g/1/3" {
		t.Errorf("viewEventID = %q", got)
	}
}

func TestViewHelpers(t *testing.T) {
	v := View{Epoch: 1, Members: []wire.NodeID{"a", "b", "c"}}
	if v.Sequencer() != "a" {
		t.Errorf("Sequencer = %v", v.Sequencer())
	}
	if !v.Contains("b") || v.Contains("z") {
		t.Error("Contains broken")
	}
	if (View{}).Sequencer() != "" {
		t.Error("empty view sequencer should be empty")
	}
	c := v.clone()
	c.Members[0] = "mut"
	if v.Members[0] != "a" {
		t.Error("clone aliases members")
	}
	if got := fmt.Sprint(v); got == "" {
		t.Error("View.String empty")
	}
}

// TestNextMembers is the membership decision on its own: no runtime, one
// case per rule, each named by what it decides.
func TestNextMembers(t *testing.T) {
	const now, after = time.Second, 100 * time.Millisecond
	fresh, stale := now-after/2, now-2*after
	ids := func(s ...string) (out []wire.NodeID) {
		for _, id := range s {
			out = append(out, wire.NodeID(id))
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		view       []wire.NodeID
		installing bool
		initial    []wire.NodeID // default: a b c
		self       wire.NodeID
		seen       map[wire.NodeID]time.Duration
		quorum     bool
		want       []wire.NodeID // nil: no change
	}{
		{name: "nobody silent: no change",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": fresh, "c": fresh}},
		{name: "a view member never heard from is not suspected",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": fresh}},
		{name: "one follower suspected",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": fresh},
			want: ids("a", "c")},
		{name: "the sequencer suspected, by a follower",
			view: ids("a", "b", "c"), self: "b", seen: map[wire.NodeID]time.Duration{"a": stale, "c": fresh},
			want: ids("b", "c")},
		{name: "two of three suspected",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": stale},
			want: ids("a")},
		{name: "quorum refuses a minority",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": stale}, quorum: true},
		{name: "quorum lets a majority through",
			view: ids("a", "b", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": fresh}, quorum: true,
			want: ids("a", "c")},
		{name: "the installed sequencer proposes a rejoin",
			view: ids("a", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": fresh, "c": fresh},
			want: ids("a", "b", "c")},
		{name: "a follower does not propose a rejoin",
			view: ids("a", "c"), self: "c", seen: map[wire.NodeID]time.Duration{"a": fresh, "b": fresh}},
		{name: "an excluded member heard long ago does not rejoin",
			view: ids("a", "c"), self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": fresh}},
		{name: "no proposal while installing",
			view: ids("a", "b", "c"), installing: true, self: "a", seen: map[wire.NodeID]time.Duration{"b": stale, "c": stale}},
		{name: "no proposal when self is not in the view",
			view: ids("a", "b"), self: "c", seen: map[wire.NodeID]time.Duration{"a": stale, "b": fresh}},
		{name: "original rank order kept across a rejoin and a suspicion",
			view: ids("a", "c", "d"), initial: ids("a", "b", "c", "d"), self: "a",
			seen: map[wire.NodeID]time.Duration{"b": fresh, "c": fresh, "d": stale},
			want: ids("a", "b", "c")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			initial := tc.initial
			if initial == nil {
				initial = ids("a", "b", "c")
			}
			got := membership{
				view: View{Epoch: 3, Members: tc.view}, installing: tc.installing, initial: initial, self: tc.self,
				lastSeen: tc.seen, now: now, suspectAfter: after, quorum: tc.quorum,
			}.nextMembers()
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("next members %v, want %v", got, tc.want)
			}
		})
	}
}
