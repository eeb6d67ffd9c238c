// Deterministic schedule trace: an append-only log of scheduler decisions
// partitioned into *streams*, each with a rolling FNV-1a digest.
//
// The determinism contract of the middleware is per stream, not global:
// events guarded by one mutex's ownership (grants, unlocks, waits, wakes)
// occur in the same order on every replica, but the real-time interleaving
// *between* mutexes — or between a mutex and the delivery stream — is not
// deterministic (e.g. two ADETS-MAT secondaries unlocking different mutexes
// race in wall-clock time while their per-mutex grant sequences stay
// identical). Each trace therefore keeps one digest per stream:
//
//	mutex/<m>  ownership-serialized events of mutex m
//	order      totally-ordered deliveries (the group's sequence numbers)
//	rounds     ADETS-PDS round starts
//	sched      strategy-global decisions (SEQ/SL execution order, view
//	           changes)
//
// Two replicas of one group MUST have pairwise-equal stream prefixes: for
// every stream, the first min(countA, countB) events — and hence the rolling
// digests at those positions — must match. FirstDivergence checks exactly
// that, which turns the trace into a correctness oracle for all six ADETS
// algorithms: any nondeterministic scheduling decision shows up as a digest
// mismatch at an exact stream position.
//
// Digests hash only replica-deterministic inputs: event kind, the *logical*
// thread or message id, and the detail string. Never physical thread ids,
// never timestamps.
//
// Recording allocates nothing: a site resolves its stream once
// (Trace.Stream) and records through the handle, and a numeric detail — a
// sequence number, a round, an epoch — goes in as a number (RecordN) that
// folds the decimal bytes strconv.FormatUint would contribute, so digests
// are those of the string form; the string is built when an event is read.
// A numbered subject — a client's call, a logical thread it started — goes
// in the same way (RecordCall, RecordThread).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/replobj/replobj/internal/ring"
)

// Kind classifies a schedule event.
type Kind uint8

// Schedule event kinds.
const (
	// KindGrant: a mutex was granted to a logical thread.
	KindGrant Kind = iota + 1
	// KindUnlock: a mutex was released by its owner.
	KindUnlock
	// KindWait: the owner released the mutex to wait on a condition.
	KindWait
	// KindWake: a condition waiter was woken (notify or deterministic
	// timeout; the detail distinguishes them).
	KindWake
	// KindExec: an execution-order decision (sequential strategies) or a
	// totally-ordered delivery (the "order" stream).
	KindExec
	// KindRound: a scheduling round started (ADETS-PDS).
	KindRound
	// KindView: a membership view change reached the scheduler.
	KindView
	// KindCheckpoint: a deterministic checkpoint boundary on the ordered
	// stream (taken or skipped; the detail distinguishes them). Recorded on
	// every replica at the same sequence number, so a replica that skips a
	// checkpoint another replica takes diverges in the digest — the trace
	// doubles as the oracle for checkpoint determinism.
	KindCheckpoint
)

func (k Kind) String() string {
	switch k {
	case KindGrant:
		return "grant"
	case KindUnlock:
		return "unlock"
	case KindWait:
		return "wait"
	case KindWake:
		return "wake"
	case KindExec:
		return "exec"
	case KindRound:
		return "round"
	case KindView:
		return "view"
	case KindCheckpoint:
		return "checkpoint"
	}
	return "?"
}

// Event is one recorded scheduler decision.
type Event struct {
	// Pos is the event's 0-based position within its stream.
	Pos uint64
	// Kind classifies the decision.
	Kind Kind
	// Subject is the logical thread (or message id) the decision concerns.
	Subject string
	// Detail carries extra deterministic context (sequence number,
	// "timeout" marker, round number).
	Detail string
	// Digest is the stream's rolling digest *after* folding this event in.
	Digest uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fnvUint folds the decimal form of n, without building it.
func fnvUint(h, n uint64) uint64 {
	var dec [20]byte // len(strconv.FormatUint(math.MaxUint64, 10))
	for _, b := range strconv.AppendUint(dec[:0], n, 10) {
		h = fnvByte(h, b)
	}
	return h
}

// Stream is a handle on one digest-carrying event sequence of a trace
// (Trace.Stream), good for the life of the trace: RestoreStreams resets
// streams in place. Safe for concurrent use and on a nil receiver (the
// handle of a nil trace).
type Stream struct {
	t      *Trace
	count  uint64
	digest uint64
}

// slot is one retained event; a numeric detail and a call number stay
// numbers until read. Its position is not kept: a stream's retained events
// are a contiguous tail of it, so Snapshot counts back from the stream's
// count.
type slot struct {
	s               *Stream
	digest, n, call uint64
	subject, detail string
	kind            Kind
	numeric         bool
}

func (sl *slot) event() Event {
	ev := Event{Kind: sl.kind, Subject: sl.subject, Detail: sl.detail, Digest: sl.digest}
	if sl.call != 0 {
		ev.Subject += "#" + strconv.FormatUint(sl.call, 10)
	}
	if sl.numeric {
		ev.Detail = strconv.FormatUint(sl.n, 10)
	}
	return ev
}

// Trace is a per-replica schedule trace. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops / zero values), so
// instrumented code needs no enabled-check.
//
// The events of all streams are retained in one ring, evicted oldest first
// regardless of stream, so the memory a trace holds does not grow with the
// number of streams (a mutex-heavy object has one per mutex). What is left
// of a stream is always a contiguous tail of it; one that has been quiet
// for `retain` events of the others keeps its count and digest only.
// Readers see a stream once it holds an event; a handle alone creates none.
type Trace struct {
	mu       sync.Mutex
	retain   int
	streams  map[string]*Stream
	ring     ring.Queue[slot]
	retained *Gauge
}

// DefaultRetain is the default number of events retained per trace.
const DefaultRetain = 16384

// NewTrace returns a trace retaining the last `retain` events recorded,
// over all streams (DefaultRetain if retain <= 0). The rolling digests
// always cover the full history regardless of retention.
func NewTrace(retain int) *Trace {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Trace{retain: retain, streams: make(map[string]*Stream)}
}

// ExportRetained makes the trace keep g at the number of events it retains.
// Safe on a nil receiver.
func (t *Trace) ExportRetained(g *Gauge) {
	if t != nil {
		t.mu.Lock()
		t.retained = g
		g.Set(int64(t.ring.Len()))
		t.mu.Unlock()
	}
}

// Stream returns the handle of the named stream, for a recording site to
// keep. Nil on a nil receiver.
func (t *Trace) Stream(name string) *Stream {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streamLocked(name)
}

func (t *Trace) streamLocked(name string) *Stream {
	s := t.streams[name]
	if s == nil {
		s = &Stream{t: t, digest: fnvOffset64}
		t.streams[name] = s
	}
	return s
}

// Record is Stream(streamName).Record, for sites too cold to keep a handle.
func (t *Trace) Record(streamName string, kind Kind, subject, detail string) {
	t.Stream(streamName).Record(kind, subject, detail)
}

// Record appends an event and folds it into the stream digest.
func (s *Stream) Record(kind Kind, subject, detail string) {
	s.record(slot{kind: kind, subject: subject, detail: detail})
}

// RecordN is Record with the detail strconv.FormatUint(n, 10) — same digest,
// same event when read — without building the string.
func (s *Stream) RecordN(kind Kind, subject string, n uint64) {
	s.record(slot{kind: kind, subject: subject, n: n, numeric: true})
}

// RecordCall is RecordN with the subject origin + "#" +
// strconv.FormatUint(call, 10): a client's call, named by its origin and
// call number, without building the string. A call of 0 leaves the subject
// origin alone.
func (s *Stream) RecordCall(kind Kind, origin string, call, n uint64) {
	s.record(slot{kind: kind, subject: origin, call: call, n: n, numeric: true})
}

// RecordThread is Record with the subject a logical thread named by
// (logical, call), folded as RecordCall folds it — logical + "#" + call, or
// logical alone for a call of 0 — without building the string.
func (s *Stream) RecordThread(kind Kind, logical string, call uint64, detail string) {
	s.record(slot{kind: kind, subject: logical, call: call, detail: detail})
}

// record is the one place an event is folded into a digest and retained.
func (s *Stream) record(sl slot) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	h := fnvByte(s.digest, byte(sl.kind))
	h = fnvString(h, sl.subject)
	if sl.call != 0 {
		h = fnvUint(fnvByte(h, '#'), sl.call)
	}
	h = fnvByte(h, 0xfe)
	if sl.numeric {
		h = fnvUint(h, sl.n)
	} else {
		h = fnvString(h, sl.detail)
	}
	h = fnvByte(h, 0xff)
	s.digest = h
	sl.s, sl.digest = s, h
	s.count++
	if t.ring.Len() == t.retain {
		t.ring.Pop()
	}
	t.ring.Push(sl)
	t.retained.Set(int64(t.ring.Len()))
	t.mu.Unlock()
}

// StreamSnapshot is an immutable copy of one stream's state.
type StreamSnapshot struct {
	Stream string
	Count  uint64
	Digest uint64  // rolling digest over the full history
	Events []Event // retained tail, oldest first
}

// event returns the retained event at pos, or nil.
func (s StreamSnapshot) event(pos uint64) *Event {
	if len(s.Events) == 0 {
		return nil
	}
	first := s.Events[0].Pos
	if pos < first || pos >= first+uint64(len(s.Events)) {
		return nil
	}
	return &s.Events[pos-first]
}

// Snapshot returns a consistent copy of every stream. Safe on nil (empty).
func (t *Trace) Snapshot() map[string]StreamSnapshot {
	out := make(map[string]StreamSnapshot)
	if t == nil {
		return out
	}
	t.mu.Lock()
	byStream := make(map[*Stream]*StreamSnapshot, len(t.streams))
	for name, s := range t.streams {
		if s.count > 0 {
			byStream[s] = &StreamSnapshot{Stream: name, Count: s.count, Digest: s.digest}
		}
	}
	for sl := range t.ring.All() {
		ss := byStream[sl.s]
		ss.Events = append(ss.Events, sl.event())
	}
	t.mu.Unlock()
	for _, ss := range byStream {
		first := ss.Count - uint64(len(ss.Events))
		for i := range ss.Events {
			ss.Events[i].Pos = first + uint64(i)
		}
		out[ss.Stream] = *ss
	}
	return out
}

// Digest returns a stream's event count and rolling digest (0, 0 on nil or
// unknown stream).
func (t *Trace) Digest(streamName string) (count, digest uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.streams[streamName]; s != nil && s.count > 0 {
		return s.count, s.digest
	}
	return 0, 0
}

// Divergence reports the first position at which two traces' schedule
// decisions differ.
type Divergence struct {
	// Stream is the diverging stream name (e.g. "mutex/state").
	Stream string
	// Pos is the 0-based stream position of the first differing event.
	Pos uint64
	// A and B are the differing events (nil when evicted from retention).
	A, B *Event
}

func (d *Divergence) String() string {
	if d == nil {
		return "<no divergence>"
	}
	fmtEv := func(e *Event) string {
		if e == nil {
			return "<evicted>"
		}
		return fmt.Sprintf("%s %s %s (digest %016x)", e.Kind, e.Subject, e.Detail, e.Digest)
	}
	return fmt.Sprintf("stream %q position %d: %s != %s", d.Stream, d.Pos, fmtEv(d.A), fmtEv(d.B))
}

// FirstDivergence compares the common prefix of two trace snapshots stream
// by stream and returns the earliest divergence, or nil if every stream's
// first min(countA, countB) events agree. A stream present on only one side
// (or longer on one side) is NOT a divergence — replicas may lag behind one
// another; they may not *disagree*.
func FirstDivergence(a, b map[string]StreamSnapshot) *Divergence {
	names := make([]string, 0, len(a))
	for n := range a {
		if _, ok := b[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var first *Divergence
	for _, n := range names {
		sa, sb := a[n], b[n]
		common := sa.Count
		if sb.Count < common {
			common = sb.Count
		}
		if common == 0 {
			continue
		}
		// Fast path: equal digests at the last common position mean the
		// whole prefix matches (rolling hash).
		da, db := digestAt(sa, common-1), digestAt(sb, common-1)
		if da != 0 && da == db {
			continue
		}
		d := scanDivergence(n, sa, sb, common)
		if d != nil && (first == nil || d.Pos < first.Pos) {
			first = d
		}
	}
	return first
}

// digestAt returns the rolling digest after position pos, or 0 if unknown.
func digestAt(s StreamSnapshot, pos uint64) uint64 {
	if pos == s.Count-1 {
		return s.Digest
	}
	if e := s.event(pos); e != nil {
		return e.Digest
	}
	return 0
}

func scanDivergence(name string, sa, sb StreamSnapshot, common uint64) *Divergence {
	for pos := uint64(0); pos < common; pos++ {
		ea, eb := sa.event(pos), sb.event(pos)
		if ea == nil || eb == nil {
			continue // evicted on one side; cannot compare this position
		}
		if ea.Kind != eb.Kind || ea.Subject != eb.Subject || ea.Detail != eb.Detail {
			return &Divergence{Stream: name, Pos: pos, A: ea, B: eb}
		}
		if ea.Digest != eb.Digest {
			// Contents agree but rolling digests differ: the schedules
			// diverged at an earlier, already-evicted position.
			return &Divergence{Stream: name, Pos: pos}
		}
	}
	// Digests differ but every comparable retained pair agrees: the
	// divergence precedes retention. Report the earliest retained position.
	var pos uint64
	if len(sa.Events) > 0 && sa.Events[0].Pos > pos {
		pos = sa.Events[0].Pos
	}
	if len(sb.Events) > 0 && sb.Events[0].Pos > pos {
		pos = sb.Events[0].Pos
	}
	return &Divergence{Stream: name, Pos: pos}
}

// StreamState is the transferable digest state of one stream: the event
// count and the rolling digest, without the retained ring. It is what a
// snapshot carries so that a replica restored from state transfer continues
// every stream at the donor's exact position.
type StreamState struct {
	Count  uint64
	Digest uint64
}

// ExportStreams returns every stream's count and rolling digest — the
// digest state a checkpoint embeds. Safe on nil (empty map).
func (t *Trace) ExportStreams() map[string]StreamState {
	out := make(map[string]StreamState)
	if t == nil {
		return out
	}
	t.mu.Lock()
	for name, s := range t.streams {
		if s.count > 0 {
			out[name] = StreamState{Count: s.count, Digest: s.digest}
		}
	}
	t.mu.Unlock()
	return out
}

// RestoreStreams resets the trace to a snapshot's exported digest state:
// every stream named in states is set to the given count and digest, streams
// not named restart empty, and no event stays retained; handles stay good.
// A replica installing a snapshot calls this so its digests continue from
// the donor's positions instead of from its own stale history. Safe on nil.
func (t *Trace) RestoreStreams(states map[string]StreamState) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, s := range t.streams {
		s.count, s.digest = 0, fnvOffset64
	}
	for name, st := range states {
		s := t.streamLocked(name)
		s.count, s.digest = st.Count, st.Digest
	}
	t.ring = ring.Queue[slot]{}
	t.retained.Set(0)
	t.mu.Unlock()
}

// Dump writes a human-readable tail of the trace: per-stream counts and
// digests, plus the last n retained events of each stream (all retained
// events when n <= 0). streamFilter restricts the output to one stream when
// non-empty. Safe on a nil receiver.
func (t *Trace) Dump(w io.Writer, streamFilter string, n int) {
	snap := t.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if streamFilter != "" && name != streamFilter {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := snap[name]
		fmt.Fprintf(w, "stream %s count=%d digest=%016x\n", name, s.Count, s.Digest)
		evs := s.Events
		if n > 0 && len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		for _, e := range evs {
			line := fmt.Sprintf("  [%d] %s %s", e.Pos, e.Kind, e.Subject)
			if e.Detail != "" {
				line += " " + e.Detail
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
}
