package gcs

import "testing"

// tri is one input of a verdict-table row: whatever (the zero value) admits
// both truth values.
type tri int8

const (
	whatever tri = iota
	yes
	no
)

func (t tri) admits(b bool) bool { return t == whatever || (t == yes) == b }

// TestSubmitVerdictTable is the submit classifier as a table: the rows
// partition every combination of inputs that can occur, for named ids and
// for numbered ones (a client's call, judged by its origin's row), and each
// names the test that checks its rule end to end.
func TestSubmitVerdictTable(t *testing.T) {
	rows := []struct {
		name string // the rule, and where it is checked end to end

		numbered                                           tri
		ordered, below, fromOrigin, fromOrderedOrigin, own tri
		first, sequencer, suspended, installing            tri

		want submitVerdict
	}{
		{name: "a relay of an ordered id is settled (TestStaleRelayIsAnsweredWithItsPosition)",
			numbered: no, ordered: yes, fromOrigin: no, want: settled},
		{name: "another origin's copy of an ordered id is settled (TestGroupWideSubmitIsNotARetransmission)",
			numbered: no, ordered: yes, fromOrigin: yes, fromOrderedOrigin: no, want: settled},
		{name: "the ordered origin sends an ordered id again (TestPlainGroupReplaysFirstDirectArrival, TestStaleRelayIsAnsweredWithItsPosition, TestSnapshotSettlesCachedSubmits)",
			numbered: no, ordered: yes, fromOrderedOrigin: yes, want: retransmission},
		{name: "the sequencer orders (TestTotalOrderBasic)",
			numbered: no, ordered: no, sequencer: yes, want: orderHere},
		{name: "a call above its origin's row is fresh: the sequencer orders it (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: no, sequencer: yes, want: orderHere},
		{name: "a copy of a numbered call from anyone but its client is settled (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: yes, fromOrigin: no, want: settled},
		{name: "the row's own call from its client is a retransmission, at the row's position (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: yes, below: no, fromOrigin: yes, want: retransmission},
		{name: "a call below the row from its client is superseded (TestNumberedCallsAgainstTheRow, TestAbandonedCallNeverRunsAfterALaterOne)",
			numbered: yes, below: yes, fromOrigin: yes, want: superseded},
		{name: "a relay is never relayed again (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: no, want: hold},
		{name: "no relay while a view is installed (TestNoRelayDuringViewInstall)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: yes, want: hold},
		{name: "a suspended sequencer does not forward to itself (TestQuorumBlocksMinorityProgress, TestDeposedSequencerStopsOrdering)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: yes, want: hold},
		{name: "an own broadcast goes to the sequencer, every time (TestMemberBroadcast, TestStaleSubmitResent)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: yes, want: relayToSequencer},
		{name: "a follower relays the first copy its origin hands it (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: yes, want: relayToSequencer},
		{name: "a later copy from the origin went to every member (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: no, want: hold},
	}
	for _, numbered := range []bool{false, true} {
		for bits := 0; bits < 1<<9; bits++ {
			bit := func(i int) bool { return bits>>i&1 != 0 }
			c := submitCase{
				ordered: bit(0), fromOrigin: bit(1), own: bit(2), first: bit(3),
				sequencer: bit(4), suspended: bit(5), installing: bit(6),
				fromOrderedOrigin: bit(7), below: bit(8),
			}
			// What cannot occur: a member that orders is neither suspended nor
			// installing a view; only an ordered id has an ordered origin, and
			// only the origin's own copy is from it. A numbered id is a
			// client's, ordered for that client, and below its row only if
			// ordered; a named id is never below a row.
			if c.sequencer && (c.suspended || c.installing) ||
				c.fromOrderedOrigin && !(c.ordered && c.fromOrigin) ||
				numbered && (c.own || c.fromOrderedOrigin != (c.ordered && c.fromOrigin) ||
					c.below && !c.ordered) ||
				!numbered && c.below {
				continue
			}
			matched := -1
			for i, r := range rows {
				if r.numbered.admits(numbered) && r.ordered.admits(c.ordered) && r.below.admits(c.below) &&
					r.fromOrigin.admits(c.fromOrigin) && r.fromOrderedOrigin.admits(c.fromOrderedOrigin) &&
					r.own.admits(c.own) && r.first.admits(c.first) &&
					r.sequencer.admits(c.sequencer) && r.suspended.admits(c.suspended) &&
					r.installing.admits(c.installing) {
					if matched >= 0 {
						t.Errorf("numbered=%v %+v: rows %q and %q both apply", numbered, c, rows[matched].name, r.name)
					}
					matched = i
				}
			}
			if matched < 0 {
				t.Errorf("numbered=%v %+v: no row applies", numbered, c)
			} else if got := c.verdict(); got != rows[matched].want {
				t.Errorf("numbered=%v %+v: verdict %d, want %d — %s", numbered, c, got, rows[matched].want, rows[matched].name)
			}
		}
	}
}
