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

		numbered                                                      tri
		ordered, below, overtaken, fromOrigin, fromOrderedOrigin, own tri
		first, sequencer, suspended, installing, directCopies, passOn tri

		want submitVerdict
	}{
		{name: "a relay of an ordered id is settled (TestStaleRelayIsAnsweredWithItsPosition)",
			numbered: no, ordered: yes, fromOrigin: no, want: settled},
		{name: "another origin's copy of an ordered id is settled (TestGroupWideSubmitIsNotARetransmission)",
			numbered: no, ordered: yes, fromOrigin: yes, fromOrderedOrigin: no, want: settled},
		{name: "the direct copy an Ordered overtook is no retransmission (TestOvertakenSubmitIsNotADuplicate)",
			numbered: no, ordered: yes, fromOrderedOrigin: yes, overtaken: yes, want: overtakenFirstCopy},
		{name: "the ordered origin sends an ordered id again (TestPlainGroupReplaysFirstDirectArrival, TestStaleRelayIsAnsweredWithItsPosition, TestSnapshotSettlesCachedSubmits)",
			numbered: no, ordered: yes, fromOrderedOrigin: yes, overtaken: no, want: retransmission},
		{name: "the sequencer orders (TestTotalOrderBasic)",
			numbered: no, ordered: no, sequencer: yes, want: orderHere},
		{name: "a call above its origin's row is fresh: the sequencer orders it (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: no, sequencer: yes, want: orderHere},
		{name: "a copy of a numbered call from anyone but its client is settled (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: yes, fromOrigin: no, want: settled},
		{name: "the row's own call from its client is a retransmission, at the row's position (TestNumberedCallsAgainstTheRow)",
			numbered: yes, ordered: yes, below: no, fromOrigin: yes, overtaken: no, want: retransmission},
		{name: "the row's own call, overtaken by its Ordered in a direct-copy group (TestNumberedCallsAgainstTheRow)",
			numbered: yes, below: no, fromOrigin: yes, overtaken: yes, want: overtakenFirstCopy},
		{name: "a call below the row from its client is superseded — in a direct-copy group too where its copy set leaves this member out (TestNumberedCallsAgainstTheRow, TestAbandonedCallNeverRunsAfterALaterOne, TestCopySetOutsiderTakesRetransmissions)",
			numbered: yes, below: yes, fromOrigin: yes, overtaken: no, want: superseded},
		{name: "a call below the row in a direct-copy group may be a first copy a later call overtook, where its copy set names this member (TestNumberedCallsAgainstTheRow, TestCopySetOutsiderTakesRetransmissions, TestInvokeMessageBudget)",
			numbered: yes, below: yes, fromOrigin: yes, overtaken: yes, want: overtakenFirstCopy},
		{name: "a relay is never relayed again (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: no, want: hold},
		{name: "no relay while a view is installed (TestNoRelayDuringViewInstall)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: yes, want: hold},
		{name: "a suspended sequencer does not forward to itself (TestQuorumBlocksMinorityProgress, TestDeposedSequencerStopsOrdering)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: yes, want: hold},
		{name: "an own broadcast goes to the sequencer, every time (TestMemberBroadcast, TestStaleSubmitResent)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: yes, want: relayToSequencer},
		{name: "a follower relays the first copy its origin hands it (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: yes, directCopies: no, want: relayToSequencer},
		{name: "a later copy from the origin went to every member (TestFollowerRelaysFreshClientSubmit)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: no, directCopies: no, want: hold},
		{name: "a direct-copy group passes on a later copy from the origin: the sequencer may not have one (TestSpeculatingClientCutFromSequencer)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: no, directCopies: yes, want: relayToSequencer},
		{name: "a direct-copy group relays nothing the sequencer has its own copy of (TestDirectCopyGroupRelaysNothing, TestCopySetWithoutTheSequencerIsPassedOn)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: yes, directCopies: yes, passOn: no, want: hold},
		{name: "the lowest-ranked member of a copy set that leaves out the sequencer passes its copy on (TestCopySetWithoutTheSequencerIsPassedOn, TestSpeculatingClientPointedAtFollower)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: yes, directCopies: yes, passOn: yes, want: relayToSequencer},
	}
	for _, numbered := range []bool{false, true} {
		for bits := 0; bits < 1<<12; bits++ {
			bit := func(i int) bool { return bits>>i&1 != 0 }
			c := submitCase{
				ordered: bit(0), overtaken: bit(1), fromOrigin: bit(2), own: bit(3), first: bit(4),
				sequencer: bit(5), suspended: bit(6), installing: bit(7), directCopies: bit(8),
				fromOrderedOrigin: bit(9), below: bit(10), passOn: bit(11),
			}
			// What cannot occur: the overtaken mark is set on delivery, in
			// direct-copy groups, for origins outside the view; a member that
			// orders is neither suspended nor installing a view; only an ordered
			// id has an ordered origin, and only the origin's own copy is from it.
			// A numbered id is a client's, ordered for that client, and below its
			// row only if ordered — marked overtaken there only in a
			// direct-copy group; a named id is never below a row. A copy is
			// passed on only in a direct-copy group, by a member that is not
			// the sequencer.
			if c.overtaken && !(c.ordered && c.directCopies && !c.own) ||
				c.sequencer && (c.suspended || c.installing) ||
				c.fromOrderedOrigin && !(c.ordered && c.fromOrigin) ||
				numbered && (c.own || c.fromOrderedOrigin != (c.ordered && c.fromOrigin) ||
					c.below && !c.ordered) ||
				!numbered && c.below ||
				c.passOn && (!c.directCopies || c.sequencer || c.suspended) {
				continue
			}
			matched := -1
			for i, r := range rows {
				if r.numbered.admits(numbered) && r.ordered.admits(c.ordered) && r.below.admits(c.below) &&
					r.overtaken.admits(c.overtaken) &&
					r.fromOrigin.admits(c.fromOrigin) && r.fromOrderedOrigin.admits(c.fromOrderedOrigin) &&
					r.own.admits(c.own) && r.first.admits(c.first) &&
					r.sequencer.admits(c.sequencer) && r.suspended.admits(c.suspended) &&
					r.installing.admits(c.installing) && r.directCopies.admits(c.directCopies) &&
					r.passOn.admits(c.passOn) {
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
