// Package tracing implements per-request distributed tracing for the
// middleware: a 64-bit trace context that rides every invocation through
// the wire codec, spans recorded at each stage boundary (client submit,
// transport, sequencer ordering, scheduler grant wait, execution, reply),
// and a bounded lock-free span ring per process.
//
// Trace identifiers are deterministic: they are the FNV-1a hash of the
// invocation's logical thread id, which the client stub derives from
// (member, submit sequence). Any layer that knows the logical thread —
// notably the schedulers' grant/wait hooks — can therefore attach spans to
// the right trace without threading a context through every call.
//
// The package is stdlib-only and imports nothing else from the repository,
// so every layer (wire, transport, gcs, adets, replica, client, obs) can
// depend on it without cycles. Like package obs, every method is safe on a
// nil receiver: a deployment without tracing passes nil collectors around
// and instrumented paths cost one branch.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// Context is the trace context carried by a request and its reply: the
// trace it belongs to and the span that emitted it. The zero value means
// "not traced" and encodes on the wire exactly as before tracing existed
// (see the variant payload tags in internal/replica/binary.go).
type Context struct {
	TraceID uint64
	Span    uint64
}

// Valid reports whether the context belongs to a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Traced is implemented by payloads that carry a trace context. The gcs
// envelopes (Submit, Ordered) delegate to their nested payload, so the
// transport can annotate any traced message without knowing its type.
type Traced interface {
	TraceCtx() Context
}

// FNV-1a, matching the constants of the schedule-trace digests in
// package obs.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// TraceID derives the deterministic trace id of a logical thread id
// (e.g. "client/c0#7"). Identical on every process that sees the request;
// never zero (zero is the "untraced" sentinel).
func TraceID(logical string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(logical); i++ {
		h ^= uint64(logical[i])
		h *= fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// NewSpanID derives a span id from its trace, stage name, recording node
// and start time — unique enough to resolve parent links within one trace
// without coordination, and deterministic given identical timings.
func NewSpanID(trace uint64, name, node string, start time.Duration) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (trace >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= fnvPrime64
	}
	s := uint64(start)
	for i := 0; i < 8; i++ {
		h ^= (s >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Span is one annotated stage of a request's journey. Start is the
// recording process's runtime clock (vtime); within one process — and
// within one simulated cluster, which shares a runtime — all spans are on
// a single timeline.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Node   string        `json:"node"`
	Shard  string        `json:"shard,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Collector is a bounded lock-free span ring: writers claim a slot with one
// atomic increment and publish with one atomic pointer store; when the ring
// is full the oldest spans are overwritten (and counted as dropped).
// Snapshot, the JSON/Chrome exporters and the /spans endpoint read
// concurrently without stopping writers.
//
// The collector also keeps a small bounded map from live logical threads to
// their trace contexts (Bind/Lookup/Unbind) so instrumentation that only
// knows the logical thread — the schedulers' grant hooks — can attach
// spans to the right trace.
type Collector struct {
	slots []atomic.Pointer[Span]
	pos   atomic.Uint64

	// observer, when set, additionally receives every recorded span —
	// the bridge that feeds per-stage histograms without this package
	// importing obs.
	observer atomic.Pointer[func(Span)]

	mu        sync.RWMutex
	bind      map[wire.ThreadID]Context
	bindOrder []wire.ThreadID
}

// maxBindings bounds the logical→context map against leaks when threads
// never unbind (mirrors the bounded id maps of gcs.Member).
const maxBindings = 1 << 13

// DefaultRingSize is the span-ring capacity used when none is given.
const DefaultRingSize = 1 << 14

// NewCollector returns a collector retaining the last n spans (n <= 0
// selects DefaultRingSize).
func NewCollector(n int) *Collector {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Collector{
		slots: make([]atomic.Pointer[Span], n),
		bind:  make(map[wire.ThreadID]Context),
	}
}

// Record publishes one span. Safe on a nil receiver (no-op) and safe for
// concurrent use; the hot path is one atomic add plus one pointer store.
func (c *Collector) Record(sp Span) {
	if c == nil {
		return
	}
	i := c.pos.Add(1) - 1
	c.slots[i%uint64(len(c.slots))].Store(&sp)
	if f := c.observer.Load(); f != nil {
		(*f)(sp)
	}
}

// SetObserver installs fn to additionally receive every recorded span
// (nil clears). Used to feed per-stage latency histograms.
func (c *Collector) SetObserver(fn func(Span)) {
	if c == nil {
		return
	}
	if fn == nil {
		c.observer.Store(nil)
		return
	}
	c.observer.Store(&fn)
}

// Bind associates a live logical thread with its trace context so hooks
// that only see the logical id can attach spans (see SchedObs).
func (c *Collector) Bind(th wire.ThreadID, ctx Context) {
	if c == nil || !ctx.Valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bind[th]; !ok {
		c.bindOrder = append(c.bindOrder, th)
		if len(c.bindOrder) > maxBindings {
			old := c.bindOrder[0]
			c.bindOrder = c.bindOrder[1:]
			delete(c.bind, old)
		}
	}
	c.bind[th] = ctx
}

// Lookup returns the context bound to a logical thread (zero when none).
func (c *Collector) Lookup(th wire.ThreadID) Context {
	if c == nil {
		return Context{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bind[th]
}

// Unbind drops a logical thread's binding (the order slice is pruned
// lazily by the Bind cap).
func (c *Collector) Unbind(th wire.ThreadID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.bind, th)
}

// Len returns the number of spans currently retained.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	n := c.pos.Load()
	if n > uint64(len(c.slots)) {
		return len(c.slots)
	}
	return int(n)
}

// Dropped returns how many spans have been overwritten by ring wraparound.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	n := c.pos.Load()
	if n <= uint64(len(c.slots)) {
		return 0
	}
	return n - uint64(len(c.slots))
}

// Reset discards every retained span and the drop count, so a fresh
// measurement window starts empty (the logical-thread bindings survive:
// in-flight requests keep attaching spans to the right traces). Not
// intended to run concurrently with writers — a racing Record may land
// before or after the wipe, either of which is a coherent outcome.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.pos.Store(0)
	for i := range c.slots {
		c.slots[i].Store(nil)
	}
}

// Snapshot returns the retained spans ordered by start time. A concurrent
// writer may be mid-overwrite; torn slots are simply the old or the new
// span (pointers swap atomically), never garbage.
func (c *Collector) Snapshot() []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, 0, len(c.slots))
	for i := range c.slots {
		if p := c.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByTrace returns the retained spans of one trace, ordered by start time.
func (c *Collector) ByTrace(trace uint64) []Span {
	var out []Span
	for _, sp := range c.Snapshot() {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// document is the JSON shape of WriteJSON.
type document struct {
	Count   int    `json:"count"`
	Dropped uint64 `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// WriteJSON writes the retained spans as one JSON document.
func (c *Collector) WriteJSON(w io.Writer) error {
	doc := document{Count: c.Len(), Dropped: c.Dropped(), Spans: c.Snapshot()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteChromeTrace writes the retained spans in the Chrome trace-event
// format (complete events, µs timestamps) — load the output in Perfetto or
// chrome://tracing to see the per-stage decomposition on a shared timeline,
// one thread track per node.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	spans := c.Snapshot()
	// Stable small integer per node for the tid field; named via metadata.
	tids := make(map[string]int)
	var nodes []string
	for _, sp := range spans {
		if _, ok := tids[sp.Node]; !ok {
			tids[sp.Node] = len(tids) + 1
			nodes = append(nodes, sp.Node)
		}
	}
	type chromeEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]chromeEvent, 0, len(spans)+len(nodes))
	for _, node := range nodes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tids[node],
			Args: map[string]any{"name": node},
		})
	}
	for _, sp := range spans {
		args := map[string]any{
			"trace": fmt.Sprintf("%016x", sp.Trace),
			"span":  fmt.Sprintf("%016x", sp.ID),
		}
		if sp.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", sp.Parent)
		}
		if sp.Shard != "" {
			args["shard"] = sp.Shard
		}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.Seq != 0 {
			args["seq"] = sp.Seq
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "replobj",
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  tids[sp.Node],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
