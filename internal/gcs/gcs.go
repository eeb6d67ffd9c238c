// Package gcs implements the group communication substrate of the
// middleware: reliable totally-ordered broadcast within a replica group,
// group membership with deterministic view changes, and a heartbeat failure
// detector.
//
// It plays the role of the Aspectix group communication module in the
// paper's FTflex stack (Section 5.1): client requests, nested-invocation
// replies, deterministic-timeout requests, and LSA mutex-table updates all
// travel through it, and every replica observes them in the same total
// order. View changes are delivered *in-stream* as ordered events, so a
// scheduler such as ADETS-LSA sees the leader change at exactly the same
// logical position on every replica.
//
// The protocol is a fixed-sequencer total order: the lowest-ranked live
// member sequences. On suspicion of a member, a new view is proposed; the
// new sequencer synchronizes ordered-message tails from all live members,
// catches each member up from the union, and resumes numbering in the same
// sequence space.
//
// Assumptions (documented limits, adequate for the paper's experiments):
// crash-stop failures, at most a minority of a group failing, and an
// eventually well-behaved network. Byzantine failures are out of scope
// (the paper's LSA discussion mentions a Byzantine fail-over variant; we
// implement the crash variant).
package gcs

import (
	"fmt"
	"slices"
	"time"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// View is a group membership view: a monotonically increasing epoch and the
// live members in rank order (a subset of the initial membership, original
// order preserved).
type View struct {
	Epoch   uint64
	Members []wire.NodeID
}

// Sequencer returns the member responsible for ordering in this view.
func (v View) Sequencer() wire.NodeID {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Contains reports whether id is a member of the view.
func (v View) Contains(id wire.NodeID) bool { return slices.Contains(v.Members, id) }

// clone returns a deep copy of the view.
func (v View) clone() View {
	return View{Epoch: v.Epoch, Members: append([]wire.NodeID(nil), v.Members...)}
}

func (v View) String() string {
	return fmt.Sprintf("view{epoch=%d members=%v}", v.Epoch, v.Members)
}

// Message ids. A message is named one of two ways, and every frame that
// carries one (Submit, Ordered, Hint) and Delivery have room for both:
//
//   - numbered: a client's call, Origin and Call, the client's call number
//     (Call > 0, ID empty). A client has one call outstanding at a time and
//     sends call n+1 only once call n has completed or been abandoned, so its
//     calls take positions in call order, and a member keeps one row per
//     origin: the highest call it has seen ordered (see member.go).
//   - named: ID, a string unique group-wide (Call 0) — a timeout, a nested
//     request or reply, an LSA table update, a view event.
//     Every member that submits one submits it alike, whatever its origin,
//     so a member remembers a window of the names it has seen.

// Delivery is one element of the totally ordered stream a member hands to
// the layer above.
type Delivery struct {
	// Seq is the position in the group-wide total order. Seqs are contiguous
	// and shared across view changes.
	Seq uint64
	// ID is the name of a named message; Call the call number of a numbered
	// one (see Message ids).
	ID   string
	Call uint64
	// Origin is the node that submitted the message.
	Origin wire.NodeID
	// Payload is the application payload, nil for view events.
	Payload any
	// NewView is non-nil when this delivery announces a membership change.
	NewView *View
	// Snapshot is non-nil when the requested tail has been truncated and the
	// stream resumes from a checkpoint instead: Seq is the checkpoint
	// position and Snapshot the opaque state image recorded there (see
	// Member.SetCheckpoint). The layer above must restore from it; ordinary
	// deliveries continue at Seq+1.
	Snapshot []byte
}

// --- protocol payloads ---

// Submit asks the sequencer to order a payload, a *T. A sender may nest a
// *T of its own (the client nests its call's Request); a receiver holds a
// *T of its own, which TCP carves from its stream's slab and wire.Own
// copies, keeps it and never writes through it.
type Submit struct {
	Group   wire.GroupID
	ID      string
	Origin  wire.NodeID
	Call    uint64
	Payload any
}

// TraceCtx delegates to the nested payload, so the transport can annotate
// a traced submit in flight without knowing the payload type.
func (s Submit) TraceCtx() tracing.Context { return traceCtx(s.Payload) }

func traceCtx(payload any) tracing.Context {
	if t, ok := payload.(tracing.Traced); ok {
		return t.TraceCtx()
	}
	return tracing.Context{}
}

// Ordered is a sequenced message broadcast by the sequencer: one message
// and the position it takes. An Ordered without Payload and View fills a
// sequence number whose message was lost with a crashed sequencer.
type Ordered struct {
	Group   wire.GroupID
	Epoch   uint64
	Seq     uint64
	ID      string
	Origin  wire.NodeID
	Call    uint64
	Payload any
	// View is non-nil for in-stream view-change announcements.
	View *View
}

// TraceCtx delegates to the payload, as Submit's does.
func (o Ordered) TraceCtx() tracing.Context { return traceCtx(o.Payload) }

// Nack requests retransmission of ordered messages starting at Want.
type Nack struct {
	Group wire.GroupID
	From  wire.NodeID
	Want  uint64
}

// Heartbeat is the failure-detector beacon. MaxSeq piggybacks the sender's
// ordered-sequence frontier so a receiver that silently lost the tail of a
// burst (no later traffic would ever open a gap) learns it is behind and
// NACKs the sequencer. Acked piggybacks the sender's delivery frontier
// (highest contiguously delivered seq); the minimum over the view is the
// stability watermark below which retained log entries may be truncated.
type Heartbeat struct {
	Group  wire.GroupID
	From   wire.NodeID
	Epoch  uint64
	MaxSeq uint64
	Acked  uint64
}

// Snapshot transfers a checkpoint state image to a member whose requested
// tail has been truncated: it stands in for every ordered message up to and
// including Seq. Data is opaque to gcs (produced by the layer above through
// Member.SetCheckpoint).
type Snapshot struct {
	Group wire.GroupID
	Seq   uint64
	Data  []byte
}

// Hint is the position the sequencer names for a message id, in answer to a
// member's copy of an id already ordered, to that member alone: a Hint below
// the receiver's delivery frontier settles its cached submit (a snapshot may
// have skipped the Ordered) and goes no further — Seq 0 for a numbered call
// superseded before it was ordered. Origin is set for numbered ids only.
type Hint struct {
	Group  wire.GroupID
	ID     string
	Origin wire.NodeID
	Call   uint64
	Seq    uint64
}

// Propose announces a candidate next view after a suspicion.
type Propose struct {
	Group wire.GroupID
	From  wire.NodeID
	View  View
}

// SyncReq is sent by the sequencer of a proposed view to collect state.
// It carries the proposed view so a member that missed the Propose can
// adopt it.
type SyncReq struct {
	Group wire.GroupID
	From  wire.NodeID
	View  View
}

// SyncResp carries a member's ordered-message tail to the new sequencer.
// SnapSeq/Snap carry the member's latest checkpoint (zero/nil when none):
// the new sequencer uses the best one to bring deep-lagged members past
// truncated stretches of the log instead of filling them with no-ops.
type SyncResp struct {
	Group     wire.GroupID
	From      wire.NodeID
	Epoch     uint64
	Delivered uint64    // highest contiguously delivered seq
	Tail      []Ordered // retained ordered messages (any order)
	Pending   []Submit  // submits cached but possibly never ordered
	SnapSeq   uint64    // checkpoint position (0 = no checkpoint)
	Snap      []byte    // checkpoint state image
}

// group names the group a protocol payload belongs to (Member.Handle). The
// receivers are pointers, as every top-level payload is: a value payload is
// no group message, so Handle refuses it and the replica counts it unknown.
func (p *Submit) group() wire.GroupID    { return p.Group }
func (p *Ordered) group() wire.GroupID   { return p.Group }
func (p *Nack) group() wire.GroupID      { return p.Group }
func (p *Heartbeat) group() wire.GroupID { return p.Group }
func (p *Snapshot) group() wire.GroupID  { return p.Group }
func (p *Hint) group() wire.GroupID      { return p.Group }
func (p *Propose) group() wire.GroupID   { return p.Group }
func (p *SyncReq) group() wire.GroupID   { return p.Group }
func (p *SyncResp) group() wire.GroupID  { return p.Group }

// Config configures a group member.
// Pinned by benchmark/probes.go, with NewMember.
type Config struct {
	// Group is the group identifier; messages for other groups are ignored.
	Group wire.GroupID
	// Self is this member's node id; must appear in Members.
	Self wire.NodeID
	// Members is the initial membership in rank order.
	Members []wire.NodeID
	// Send transmits a payload to a peer (provided by the owner of the
	// transport endpoint). It must be safe to call from multiple goroutines
	// and must not be called with the runtime lock held — the Member
	// guarantees the latter.
	Send func(to wire.NodeID, payload any)

	// FailureDetection enables heartbeats (every heartbeatEvery) and view
	// changes (a member silent for suspectAfter is suspected).
	FailureDetection bool
	// ResubmitAfter is how long a cached submit may stay unordered before
	// the FD tick re-sends it to the sequencer (default 2×heartbeatEvery).
	// Repairs submits lost between a replica and the sequencer. Only active
	// with FailureDetection.
	ResubmitAfter time.Duration
	// Quorum, when set, restricts the protocol to majority partitions: view
	// proposals must retain a strict majority of the current view, and the
	// sequencer suspends ordering while it cannot hear a majority. This
	// trades the ability to shrink below a majority (cascading-crash
	// tolerance) for split-brain safety under network partitions — an
	// isolated minority can neither form its own view nor order messages.
	// Ignored without FailureDetection.
	Quorum bool

	// LogRetain is how many delivered messages are kept for retransmission
	// and view synchronization beyond what a checkpoint has made
	// unnecessary (default 4096); messages not yet delivered are kept on top.
	LogRetain int

	// DuplicateSubmit, when non-nil, is invoked (outside the runtime lock)
	// for each submit whose id this member has already seen ordered. The
	// ordered stream carries no second delivery in that case, so the owner
	// gets no other signal that a client is retransmitting: the replica
	// layer uses the hook to resend a cached at-most-once reply whose
	// original transmission was lost. Without it, a retransmitting client
	// can wait forever once every live replica has delivered the request
	// (the sequencer's log re-broadcast only repairs members that missed
	// the ordered message itself). seq is the stream position the id was
	// ordered at — the replica layer uses it to classify retransmissions
	// whose reply-cache entry has already been evicted — or 0 for a numbered
	// call below its origin's row: superseded by a later call of its client,
	// it is never ordered, and its position is not known. (An id pruned from
	// the tracking window is not a duplicate any more: it is ordered again.)
	DuplicateSubmit func(sub Submit, seq uint64)

	// Stats receives protocol metrics. May be nil (all recordings no-op).
	Stats *Stats

	// Spans, when non-nil, records the ordering-stage span ("order") for
	// traced payloads.
	Spans *tracing.Collector

	// Shard, when non-empty, labels this member's spans with its shard
	// group id so per-stage latency decomposes per shard under multi-group
	// hosting. Plain (unsharded) groups leave it empty.
	Shard string
}

// The failure detector's timing. A view change's grace periods derive from
// suspectAfter: a new sequencer waits 2×suspectAfter for the tails of
// members that stay silent, any other member twice that for the view before
// it abandons the install.
const (
	heartbeatEvery = 25 * time.Millisecond  // heartbeat period
	suspectAfter   = 100 * time.Millisecond // silence before suspicion
)

func (c *Config) applyDefaults() {
	if c.ResubmitAfter <= 0 {
		c.ResubmitAfter = 2 * heartbeatEvery
	}
	if c.LogRetain <= 0 {
		c.LogRetain = 4096
	}
}
