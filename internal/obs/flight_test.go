package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// traceWithLowByte builds a TraceID whose shard byte is b and whose leading
// bytes encode n, so events are distinguishable.
func traceWithLowByte(n int, b byte) TraceID {
	var t TraceID
	putUint64(t[0:8], uint64(n))
	t[14] = 1 // never all-zero
	t[15] = b
	return t
}

func spanN(n int) SpanID {
	var s SpanID
	putUint64(s[:], uint64(n))
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// TestFlightRecorderWraparound: overfilling one shard overwrites its oldest
// events, newest-wins, and the shard holds exactly its capacity.
func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(flightShards * 4) // 4 events per shard
	const total = 11                          // all in shard 0: 7 overwrites
	for i := 0; i < total; i++ {
		fr.Record(SpanEvent{
			Trace: traceWithLowByte(i, 0),
			Span:  spanN(i + 1),
			Name:  fmt.Sprintf("span-%d", i),
			Start: int64(i),
		})
	}
	evs := fr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot holds %d events, want the shard capacity 4", len(evs))
	}
	// The survivors are exactly the newest 4, in start order.
	for i, e := range evs {
		want := fmt.Sprintf("span-%d", total-4+i)
		if e.Name != want {
			t.Fatalf("snapshot[%d] = %s, want %s (oldest must be overwritten first)", i, e.Name, want)
		}
	}
}

// TestFlightRecorderShardsByTrace: events of one trace land in one shard, so
// a full unrelated shard cannot evict them.
func TestFlightRecorderShardsByTrace(t *testing.T) {
	fr := NewFlightRecorder(flightShards * 2) // 2 per shard
	keep := traceWithLowByte(1, 1)            // shard 1
	fr.Record(SpanEvent{Trace: keep, Span: spanN(1), Name: "keep", Start: 0})
	for i := 0; i < 50; i++ { // hammer shard 0
		fr.Record(SpanEvent{Trace: traceWithLowByte(i+2, 0), Span: spanN(i + 2), Name: "noise", Start: int64(i + 1)})
	}
	found := false
	for _, e := range fr.Snapshot() {
		if e.Name == "keep" {
			found = true
		}
	}
	if !found {
		t.Fatal("event evicted by traffic on a different shard")
	}
}

// TestFlightRecorderConcurrentRecord: concurrent writers, one per shard,
// each leave exactly their newest shard-capacity events behind.
func TestFlightRecorderConcurrentRecord(t *testing.T) {
	fr := NewFlightRecorder(64) // 8 per shard
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fr.Record(SpanEvent{Trace: traceWithLowByte(g*per+i, byte(g)), Span: spanN(i + 1), Start: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	evs := fr.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot holds %d events, want the capacity 64", len(evs))
	}
	for _, e := range evs {
		if e.Start < per-8 {
			t.Fatalf("event %d survived; each shard must keep its writer's newest 8", e.Start)
		}
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(SpanEvent{})
	if got := fr.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := fr.WriteTrace(&buf); err != nil {
		t.Fatalf("nil recorder WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil recorder trace is not well-formed JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Fatalf("nil recorder trace has %d events", len(tf.TraceEvents))
	}
}

// TestWriteTraceEvents validates the Chrome trace-event export: well-formed
// JSON, complete events with microsecond timings, parent/child linkage in
// args, and one metadata track-name event per trace.
func TestWriteTraceEvents(t *testing.T) {
	trace := traceWithLowByte(9, 3)
	parent := SpanEvent{Trace: trace, Span: spanN(1), Name: "server.request",
		Start: 2_000, DurNS: 5_000, Attrs: []string{"route", "/view"}}
	child := SpanEvent{Trace: trace, Span: spanN(2), Parent: spanN(1), Name: "stream.current",
		Start: 3_000, DurNS: 1_000}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, []SpanEvent{parent, child}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not well-formed JSON: %v", err)
	}
	if len(tf.TraceEvents) != 3 { // 1 metadata + 2 spans
		t.Fatalf("%d events, want 3", len(tf.TraceEvents))
	}
	meta := tf.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "thread_name" {
		t.Fatalf("first event is %+v, want the thread_name metadata event", meta)
	}
	p, c := tf.TraceEvents[1], tf.TraceEvents[2]
	if p.Ph != "X" || c.Ph != "X" {
		t.Fatalf("span events have ph %q/%q, want X", p.Ph, c.Ph)
	}
	if p.TS != 2.0 || p.Dur != 5.0 {
		t.Fatalf("parent ts/dur = %v/%v µs, want 2/5", p.TS, p.Dur)
	}
	if p.TID != c.TID {
		t.Fatalf("same-trace spans on different tracks: %d vs %d", p.TID, c.TID)
	}
	if p.Args["route"] != "/view" {
		t.Fatalf("parent args %v lack route attr", p.Args)
	}
	if _, has := p.Args["parent_span_id"]; has {
		t.Fatalf("root span args %v carry a parent_span_id", p.Args)
	}
	if c.Args["parent_span_id"] != p.Args["span_id"] {
		t.Fatalf("child parent_span_id %q != parent span_id %q", c.Args["parent_span_id"], p.Args["span_id"])
	}
	if c.Args["trace_id"] != p.Args["trace_id"] {
		t.Fatal("parent and child report different trace_ids")
	}

	// Deterministic export: same events, same bytes.
	var buf2 bytes.Buffer
	if err := WriteTraceEvents(&buf2, []SpanEvent{parent, child}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace export is not deterministic")
	}
}
