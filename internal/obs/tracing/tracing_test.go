package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

func TestTraceIDDeterministicAndNonZero(t *testing.T) {
	a := TraceID("client/c0#1")
	b := TraceID("client/c0#1")
	if a != b {
		t.Fatalf("TraceID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("TraceID returned the untraced sentinel 0")
	}
	if TraceID("client/c0#2") == a {
		t.Fatal("distinct logical ids collided")
	}
	if TraceID("") == 0 {
		t.Fatal("TraceID(\"\") must still be non-zero")
	}
}

func TestNewSpanIDDistinguishesInputs(t *testing.T) {
	tr := TraceID("client/c0#1")
	ids := map[uint64]string{}
	for _, c := range []struct {
		name, node string
		start      time.Duration
	}{
		{"exec", "g/0", 10}, {"exec", "g/1", 10}, {"exec", "g/0", 20},
		{"order", "g/0", 10},
	} {
		id := NewSpanID(tr, c.name, c.node, c.start)
		if id == 0 {
			t.Fatal("span id 0")
		}
		key := fmt.Sprintf("%s/%s/%d", c.name, c.node, c.start)
		if prev, dup := ids[id]; dup {
			t.Fatalf("span id collision between %s and %s", prev, key)
		}
		ids[id] = key
	}
}

func TestCollectorRecordSnapshotOrder(t *testing.T) {
	c := NewCollector(8)
	for i := 3; i >= 1; i-- {
		c.Record(Span{Trace: 1, ID: uint64(i), Name: "s", Start: time.Duration(i)})
	}
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d, want 3", len(snap))
	}
	for i, sp := range snap {
		if sp.Start != time.Duration(i+1) {
			t.Fatalf("snapshot not start-ordered: %v", snap)
		}
	}
	if c.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", c.Dropped())
	}
}

func TestCollectorRingOverwrites(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Record(Span{Trace: 1, ID: uint64(i + 1), Start: time.Duration(i)})
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	for _, sp := range c.Snapshot() {
		if sp.ID <= 6 {
			t.Fatalf("span %d survived overwrite", sp.ID)
		}
	}
}

func TestCollectorConcurrentRecord(t *testing.T) {
	c := NewCollector(1024)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Record(Span{Trace: uint64(w + 1), ID: uint64(i + 1)})
			}
		}()
	}
	wg.Wait()
	if got := c.Len(); got != 1024 {
		t.Fatalf("Len = %d, want full ring", got)
	}
	if got := c.Dropped(); got != workers*per-1024 {
		t.Fatalf("Dropped = %d, want %d", got, workers*per-1024)
	}
}

func TestBindLookupUnbind(t *testing.T) {
	c := NewCollector(4)
	ctx := Context{TraceID: 42, Span: 7}
	th := wire.ThreadID{Logical: "client/c0", Call: 1}
	c.Bind(th, ctx)
	if got := c.Lookup(th); got != ctx {
		t.Fatalf("Lookup = %+v, want %+v", got, ctx)
	}
	if got := c.Lookup(wire.ThreadID{Logical: "client/c0", Call: 9}); got.Valid() {
		t.Fatalf("unknown logical resolved to %+v", got)
	}
	c.Unbind(th)
	if got := c.Lookup(th); got.Valid() {
		t.Fatalf("Lookup after Unbind = %+v", got)
	}
	// Zero contexts must not bind (they would shadow real ones).
	c.Bind(wire.ThreadID{Logical: "x"}, Context{})
	if c.Lookup(wire.ThreadID{Logical: "x"}).Valid() {
		t.Fatal("zero context bound")
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Record(Span{})
	c.Bind(wire.ThreadID{Logical: "x"}, Context{TraceID: 1})
	c.Unbind(wire.ThreadID{Logical: "x"})
	c.SetObserver(func(Span) {})
	if c.Lookup(wire.ThreadID{Logical: "x"}).Valid() || c.Len() != 0 || c.Dropped() != 0 || c.Snapshot() != nil {
		t.Fatal("nil collector leaked state")
	}
	if err := c.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverReceivesSpans(t *testing.T) {
	c := NewCollector(4)
	var got []Span
	c.SetObserver(func(sp Span) { got = append(got, sp) })
	c.Record(Span{Trace: 1, Name: "exec"})
	if len(got) != 1 || got[0].Name != "exec" {
		t.Fatalf("observer got %+v", got)
	}
	c.SetObserver(nil)
	c.Record(Span{Trace: 1, Name: "exec"})
	if len(got) != 1 {
		t.Fatal("cleared observer still invoked")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	c := NewCollector(8)
	c.Record(Span{Trace: 3, ID: 9, Parent: 1, Name: "exec", Node: "g/0",
		Seq: 4, Start: 100, Dur: 50})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Count   int    `json:"count"`
		Dropped uint64 `json:"dropped"`
		Spans   []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if doc.Count != 1 || len(doc.Spans) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Spans[0].Name != "exec" || doc.Spans[0].Seq != 4 || doc.Spans[0].Dur != 50 {
		t.Fatalf("span = %+v", doc.Spans[0])
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	c := NewCollector(8)
	c.Record(Span{Trace: 3, ID: 9, Name: "order", Node: "g/0", Start: 2000, Dur: 1000})
	c.Record(Span{Trace: 3, ID: 10, Name: "exec", Node: "g/1", Start: 3000, Dur: 500})
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if ev["ts"].(float64) <= 0 {
				t.Fatalf("event ts = %v, want µs > 0", ev["ts"])
			}
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("meta=%d complete=%d, want 2/2: %s", meta, complete, buf.String())
	}
	if !strings.Contains(buf.String(), `"thread_name"`) {
		t.Fatal("missing thread_name metadata")
	}
}
