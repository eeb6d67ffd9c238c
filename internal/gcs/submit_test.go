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
// partition every combination of inputs that can occur, and each names the
// test that checks its rule end to end.
func TestSubmitVerdictTable(t *testing.T) {
	rows := []struct {
		name string // the rule, and where it is checked end to end

		ordered, overtaken, fromOrigin, own, first     tri
		sequencer, suspended, installing, directCopies tri

		want submitVerdict
	}{
		{name: "a relay of an ordered id is dropped (TestRelayOfOrderedIDIsSilent)",
			ordered: yes, fromOrigin: no, want: staleRelay},
		{name: "the direct copy an Ordered overtook is no retransmission (TestOvertakenSubmitIsNotADuplicate)",
			ordered: yes, fromOrigin: yes, overtaken: yes, want: overtakenFirstCopy},
		{name: "the origin sends an ordered id again (TestPlainGroupReplaysFirstDirectArrival, TestRelayOfOrderedIDIsSilent)",
			ordered: yes, fromOrigin: yes, overtaken: no, want: retransmission},
		{name: "the sequencer orders (TestTotalOrderBasic)",
			ordered: no, sequencer: yes, want: orderHere},
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
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: no, want: hold},
		{name: "a direct-copy group relays nothing (TestDirectCopyGroupRelaysNothing)",
			ordered: no, sequencer: no, fromOrigin: yes, installing: no, suspended: no, own: no, first: yes, directCopies: yes, want: hold},
	}
	for bits := 0; bits < 1<<9; bits++ {
		bit := func(i int) bool { return bits>>i&1 != 0 }
		c := submitCase{
			ordered: bit(0), overtaken: bit(1), fromOrigin: bit(2), own: bit(3), first: bit(4),
			sequencer: bit(5), suspended: bit(6), installing: bit(7), directCopies: bit(8),
		}
		// What cannot occur: the overtaken mark is set on delivery, in
		// direct-copy groups, for origins outside the view; a member that
		// orders is neither suspended nor installing a view.
		if c.overtaken && !(c.ordered && c.directCopies && !c.own) ||
			c.sequencer && (c.suspended || c.installing) {
			continue
		}
		matched := -1
		for i, r := range rows {
			if r.ordered.admits(c.ordered) && r.overtaken.admits(c.overtaken) &&
				r.fromOrigin.admits(c.fromOrigin) && r.own.admits(c.own) && r.first.admits(c.first) &&
				r.sequencer.admits(c.sequencer) && r.suspended.admits(c.suspended) &&
				r.installing.admits(c.installing) && r.directCopies.admits(c.directCopies) {
				if matched >= 0 {
					t.Errorf("%+v: rows %q and %q both apply", c, rows[matched].name, r.name)
				}
				matched = i
			}
		}
		if matched < 0 {
			t.Errorf("%+v: no row applies", c)
		} else if got := c.verdict(); got != rows[matched].want {
			t.Errorf("%+v: verdict %d, want %d — %s", c, got, rows[matched].want, rows[matched].name)
		}
	}
}
