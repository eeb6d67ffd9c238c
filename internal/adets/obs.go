package adets

import (
	"strconv"
	"strings"
	"time"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
)

// SchedObs bundles the metrics and the deterministic schedule trace of one
// scheduler instance. Every method is safe on a nil receiver, so schedulers
// instrument unconditionally and a disabled deployment (nil Env.Obs) pays
// one branch per hook and zero allocations.
//
// Trace streams follow the determinism contract documented in package obs:
// per-mutex events (grant/unlock/wait/wake) go to "mutex/<m>", PDS round
// starts to "rounds", strategy-global decisions (sequential execution
// order, view changes) to "sched". Block events are deliberately metrics-
// only: whether a thread finds a mutex held depends on real-time arrival
// order (e.g. against an ADETS-MAT secondary's unlock), while the resulting
// grant sequence is still deterministic.
//
// Recording allocates nothing: the hooks keep one stream handle per mutex
// (in a table guarded by the runtime lock every recording hook runs under),
// per lane and for "sched" and "rounds", and pass numeric details as numbers.
type SchedObs struct {
	tr     *obs.Trace
	reg    *obs.Registry
	labels string

	schedStream  *obs.Stream
	roundsStream *obs.Stream
	mutexStreams map[MutexID]*obs.Stream
	laneStreams  []*obs.Stream

	grants   *obs.Counter
	blocks   *obs.Counter
	wakes    *obs.Counter
	timeouts *obs.Counter
	requests *obs.Counter
	rounds   *obs.Counter
	views    *obs.Counter

	waitQueue *obs.Gauge

	grantLat   *obs.Histogram
	reentDepth *obs.Histogram

	// Per-lane instruments (conflict-aware schedulers; see Lanes).
	laneAssigns []*obs.Counter
	laneDepth   []*obs.Gauge
	fences      *obs.Counter

	// Span instrumentation (see WithSpans). The collector resolves logical
	// thread ids to trace contexts, so grant hooks can attach spans without
	// threading a context through the scheduler.
	spans   *tracing.Collector
	spanNow func() time.Duration
	node    string
}

// NewSchedObs builds the observability hooks for one scheduler. reg and tr
// may each be nil; with both nil the result is nil (fully disabled).
// strategy and node become metric labels.
func NewSchedObs(reg *obs.Registry, tr *obs.Trace, strategy, node string) *SchedObs {
	if reg == nil && tr == nil {
		return nil
	}
	l := `{node="` + node + `",strategy="` + strategy + `"}`
	return &SchedObs{
		tr:         tr,
		reg:        reg,
		labels:     l,
		grants:     reg.Counter("replobj_sched_grants_total" + l),
		blocks:     reg.Counter("replobj_sched_blocks_total" + l),
		wakes:      reg.Counter("replobj_sched_wakes_total" + l),
		timeouts:   reg.Counter("replobj_sched_timeout_fires_total" + l),
		requests:   reg.Counter("replobj_sched_requests_total" + l),
		rounds:     reg.Counter("replobj_sched_rounds_total" + l),
		views:      reg.Counter("replobj_sched_view_changes_total" + l),
		waitQueue:  reg.Gauge("replobj_sched_wait_queue_depth" + l),
		grantLat:   reg.Histogram("replobj_sched_grant_wait_seconds"+l, obs.LatencyBuckets()),
		reentDepth: reg.Histogram("replobj_sched_reentrancy_depth"+l, obs.DepthBuckets()),

		schedStream:  tr.Stream("sched"),
		roundsStream: tr.Stream("rounds"),
		mutexStreams: make(map[MutexID]*obs.Stream),
	}
}

// Trace returns the underlying schedule trace (nil when disabled).
func (s *SchedObs) Trace() *obs.Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// mutex returns the handle of m's stream (nil with the trace off).
func (s *SchedObs) mutex(m MutexID) *obs.Stream {
	st, ok := s.mutexStreams[m]
	if !ok && s.tr != nil {
		st = s.tr.Stream("mutex/" + string(m))
		s.mutexStreams[m] = st
	}
	return st
}

// Submitted counts a totally-ordered request handed to the scheduler.
func (s *SchedObs) Submitted() {
	if s != nil {
		s.requests.Inc()
	}
}

// Exec records an execution-order decision of a sequential strategy.
func (s *SchedObs) Exec(logical string) {
	if s != nil {
		s.schedStream.Record(obs.KindExec, logical, "")
	}
}

// Grant records mutex m being granted to a logical thread.
func (s *SchedObs) Grant(m MutexID, logical string) {
	if s != nil {
		s.grants.Inc()
		s.mutex(m).Record(obs.KindGrant, logical, "")
	}
}

// Blocked counts a thread enqueueing on a held mutex (metrics only — block
// order is not replica-deterministic).
func (s *SchedObs) Blocked() {
	if s != nil {
		s.blocks.Inc()
		s.waitQueue.Inc()
	}
}

// WithSpans attaches a span collector so grant waits become "sched.grant"
// spans (and histogram exemplars) of the owning trace. now must be the
// runtime's NowLocked — all grant hooks run under the runtime lock. col may
// be nil (no-op); a nil receiver is promoted so spans work even when
// metrics and schedule tracing are both disabled.
func (s *SchedObs) WithSpans(col *tracing.Collector, now func() time.Duration, node string) *SchedObs {
	if col == nil {
		return s
	}
	if s == nil {
		s = &SchedObs{}
	}
	s.spans, s.spanNow, s.node = col, now, node
	return s
}

// GrantedAfterBlock records how long the logical thread blocked on mutex m
// waited for its grant.
func (s *SchedObs) GrantedAfterBlock(m MutexID, logical string, wait time.Duration) {
	if s == nil {
		return
	}
	s.waitQueue.Dec()
	s.grantLat.ObserveDuration(wait)
	if s.spans != nil {
		if ctx := s.spans.Lookup(logical); ctx.Valid() {
			start := s.spanNow() - wait
			s.spans.Record(tracing.Span{
				Trace:  ctx.TraceID,
				ID:     tracing.NewSpanID(ctx.TraceID, "sched.grant", s.node, start),
				Parent: ctx.Span,
				Name:   "sched.grant",
				Node:   s.node,
				Detail: string(m),
				Start:  start,
				Dur:    wait,
			})
			s.grantLat.Exemplar(wait.Seconds(), ctx.TraceID)
		}
	}
}

// Unblocked removes a thread from the wait-queue gauge without a grant
// (scheduler stopped while the thread was parked).
func (s *SchedObs) Unblocked() {
	if s != nil {
		s.waitQueue.Dec()
	}
}

// Unlock records mutex m being released by a logical thread.
func (s *SchedObs) Unlock(m MutexID, logical string) {
	if s != nil {
		s.mutex(m).Record(obs.KindUnlock, logical, "")
	}
}

// WaitStart records the owner releasing m to wait on condition c.
func (s *SchedObs) WaitStart(m MutexID, c CondID, logical string) {
	if s != nil {
		s.mutex(m).Record(obs.KindWait, logical, string(c))
	}
}

// Wake records a waiter of (m, c) being woken by a notification or a
// deterministic timeout.
func (s *SchedObs) Wake(m MutexID, c CondID, logical string, timedOut bool) {
	if s != nil {
		s.wakes.Inc()
		detail := string(c)
		if timedOut {
			detail += "/timeout"
		}
		s.mutex(m).Record(obs.KindWake, logical, detail)
	}
}

// TimeoutFired counts a deterministic wait-timeout firing.
func (s *SchedObs) TimeoutFired() {
	if s != nil {
		s.timeouts.Inc()
	}
}

// Round records a scheduling round starting (ADETS-PDS).
func (s *SchedObs) Round(n uint64) {
	if s != nil {
		s.rounds.Inc()
		s.roundsStream.RecordN(obs.KindRound, "", n)
	}
}

// ViewChange records a membership change reaching the scheduler.
func (s *SchedObs) ViewChange(epoch uint64) {
	if s != nil {
		s.views.Inc()
		s.schedStream.RecordN(obs.KindView, "", epoch)
	}
}

// ReentrantDepth samples a re-entry depth > 1 observed by the reentrancy
// layer.
func (s *SchedObs) ReentrantDepth(d int) {
	if s != nil {
		s.reentDepth.Observe(float64(d))
	}
}

// Lanes preallocates per-lane instruments for a conflict-aware scheduler
// (ADETS-CC). Called once from Scheduler.Start with the lane count.
func (s *SchedObs) Lanes(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.laneAssigns = make([]*obs.Counter, n)
	s.laneDepth = make([]*obs.Gauge, n)
	s.laneStreams = make([]*obs.Stream, n)
	base := strings.TrimSuffix(s.labels, "}")
	for i := 0; i < n; i++ {
		l := base + `,lane="` + strconv.Itoa(i) + `"}`
		s.laneAssigns[i] = s.reg.Counter("replobj_sched_lane_assigns_total" + l)
		s.laneDepth[i] = s.reg.Gauge("replobj_sched_lane_queue_depth" + l)
		s.laneStreams[i] = s.tr.Stream("lane/" + strconv.Itoa(i))
	}
	s.fences = s.reg.Counter("replobj_sched_lane_fences_total" + s.labels)
}

// LaneAssign records the request at total-order position seq being appended
// to a worker lane. The lane assignment happens at the totally-ordered submit
// point and is a pure function of the ordered stream, so it is traced (stream
// "lane/<i>"); execution start order across lanes is real-time dependent and
// is deliberately metrics-only (see LaneStart).
func (s *SchedObs) LaneAssign(lane int, logical string, seq uint64) {
	if s != nil && lane < len(s.laneStreams) {
		s.laneStreams[lane].RecordN(obs.KindExec, logical, seq)
		s.laneAssigns[lane].Inc()
		s.laneDepth[lane].Inc()
	}
}

// LaneStart records a lane-queued request beginning execution
// (metrics only — the start order across lanes is not deterministic).
func (s *SchedObs) LaneStart(lane int) {
	if s != nil && lane < len(s.laneDepth) {
		s.laneDepth[lane].Dec()
	}
}

// FenceInserted counts a deterministic all-lane barrier (view change or
// explicit drain). Fences do not appear in the lane-depth gauges.
func (s *SchedObs) FenceInserted() {
	if s != nil {
		s.fences.Inc()
	}
}
