package gcs

import "github.com/replobj/replobj/internal/obs"

// Stats collects group-communication metrics for one member. All fields are
// nil-safe: a nil *Stats (or one built from a nil registry) makes every
// recording a no-op, so the hot path pays nothing when observability is off.
type Stats struct {
	Broadcasts  *obs.Counter
	Delivered   *obs.Counter
	Nacks       *obs.Counter
	ViewChanges *obs.Counter
	Heartbeats  *obs.Counter
	// Suspicions counts the view members left out of a view this member
	// proposed.
	Suspicions *obs.Counter
	// SubmitsRelayed counts submits this member received straight from
	// their origin while not the sequencer, and passed on to it. Clients
	// address the sequencer, so outside a client's first request to a group
	// and its retransmissions a steady non-zero rate means clients are
	// pointed at a non-sequencer member (one extra hop per request).
	SubmitsRelayed *obs.Counter
	// DeliverLatency measures submit-to-delivery time in seconds: from this
	// member first seeing a submit (its own broadcast, a client's copy, a
	// relay) to delivering it, for every submit it held.
	DeliverLatency *obs.Histogram
	// LogLength tracks the number of retained ordered messages; Truncated
	// counts the entries the log has let go of (see Member.floorLocked).
	LogLength *obs.Gauge
	Truncated *obs.Counter
	// SnapshotsSent/SnapshotsInstalled count checkpoint state transfers to
	// (resp. from) peers whose requested tail was truncated.
	SnapshotsSent      *obs.Counter
	SnapshotsInstalled *obs.Counter
	// OriginRows and NamedIDs are what the member keeps of message ids: one
	// row per origin of numbered ids (the clients it has heard of), and the
	// window of named ids (replobj_gcs_id_rows{kind="origin"|"name"}).
	OriginRows *obs.Gauge
	NamedIDs   *obs.Gauge
}

// NewStats builds the member's metric set in reg, labelling every series
// with the node ID. A nil registry yields nil (all recordings no-op).
func NewStats(reg *obs.Registry, node string) *Stats {
	return newStats(reg, `{node="`+node+`"}`)
}

// NewStatsGrouped is the multi-group hosting form of NewStats: one process
// hosts many members (a sharded object's groups plus its directory), and
// the extra shard label lets dashboards slice the same series per shard
// group instead of prying the group out of the node id.
func NewStatsGrouped(reg *obs.Registry, node, shard string) *Stats {
	return newStats(reg, `{node="`+node+`",shard="`+shard+`"}`)
}

func newStats(reg *obs.Registry, label string) *Stats {
	if reg == nil {
		return nil
	}
	kind := func(k string) string { return label[:len(label)-1] + `,kind="` + k + `"}` }
	return &Stats{
		OriginRows:         reg.Gauge("replobj_gcs_id_rows" + kind("origin")),
		NamedIDs:           reg.Gauge("replobj_gcs_id_rows" + kind("name")),
		Broadcasts:         reg.Counter("replobj_gcs_broadcasts_total" + label),
		Delivered:          reg.Counter("replobj_gcs_delivered_total" + label),
		Nacks:              reg.Counter("replobj_gcs_nacks_total" + label),
		ViewChanges:        reg.Counter("replobj_gcs_view_changes_total" + label),
		Heartbeats:         reg.Counter("replobj_gcs_heartbeats_sent_total" + label),
		Suspicions:         reg.Counter("replobj_gcs_suspicions_total" + label),
		SubmitsRelayed:     reg.Counter("replobj_gcs_submits_relayed_total" + label),
		DeliverLatency:     reg.Histogram("replobj_gcs_deliver_latency_seconds"+label, obs.LatencyBuckets()),
		LogLength:          reg.Gauge("replobj_gcs_log_length" + label),
		Truncated:          reg.Counter("replobj_gcs_log_truncated_total" + label),
		SnapshotsSent:      reg.Counter("replobj_gcs_snapshots_sent_total" + label),
		SnapshotsInstalled: reg.Counter("replobj_gcs_snapshots_installed_total" + label),
	}
}
