package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// The flight recorder is the tracing layer's bounded memory: completed spans
// land in a lock-sharded ring buffer, newest-wins, so the last few thousand
// spans of a running process are always inspectable (/debug/traces, -trace-out)
// at a fixed memory ceiling — no request ever blocks on, or is slowed by more
// than a short shard-local critical section for, trace retention.

// DefFlightRecorderSpans is the default total span capacity of a flight
// recorder (split evenly across its shards).
const DefFlightRecorderSpans = 4096

// flightShards stripes the recorder; spans shard by trace ID so one
// request's tree clusters in one shard and concurrent requests rarely
// contend. Must be a power of two.
const flightShards = 8

// SpanEvent is one completed span as retained by the flight recorder.
type SpanEvent struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID // zero for a root span
	Name   string
	Start  int64    // wall-clock start, Unix nanoseconds
	DurNS  int64    // duration in nanoseconds
	Attrs  []string // alternating key/value pairs
}

// flightShard is one ring: buf grows to cap once, then next points at the
// oldest entry, which the following record overwrites.
type flightShard struct {
	mu   sync.Mutex
	buf  []SpanEvent
	next int
}

// FlightRecorder retains the most recent completed spans in a fixed-capacity
// lock-sharded ring buffer. All methods are safe for concurrent use and
// nil-safe (a nil recorder records nothing and snapshots empty).
type FlightRecorder struct {
	shards [flightShards]flightShard
	perCap int
}

// NewFlightRecorder returns a recorder retaining up to `capacity` spans
// (rounded up to a multiple of the shard count; <= 0 takes
// DefFlightRecorderSpans).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefFlightRecorderSpans
	}
	per := (capacity + flightShards - 1) / flightShards
	return &FlightRecorder{perCap: per}
}

// Record deposits one completed span, overwriting the oldest span of its
// shard when the shard ring is full.
func (fr *FlightRecorder) Record(e SpanEvent) {
	if fr == nil {
		return
	}
	sh := &fr.shards[int(e.Trace[15])&(flightShards-1)]
	sh.mu.Lock()
	if len(sh.buf) < fr.perCap {
		sh.buf = append(sh.buf, e)
	} else {
		sh.buf[sh.next] = e
		sh.next = (sh.next + 1) % fr.perCap
	}
	sh.mu.Unlock()
}

// Snapshot copies the retained spans, ordered by start time (ties broken by
// trace then span ID), so repeated snapshots of a quiescent recorder are
// identical. Each shard is copied under its own lock; the snapshot as a
// whole may straddle concurrent records.
func (fr *FlightRecorder) Snapshot() []SpanEvent {
	if fr == nil {
		return nil
	}
	var out []SpanEvent
	for i := range fr.shards {
		sh := &fr.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Trace != b.Trace {
			return string(a.Trace[:]) < string(b.Trace[:])
		}
		return string(a.Span[:]) < string(b.Span[:])
	})
	return out
}

// traceEventJSON is one Chrome trace-event ("X" = complete span, "M" =
// metadata). Durations and timestamps are microseconds, the unit the format
// mandates.
type traceEventJSON struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFileJSON is the trace-event JSON object format Perfetto and
// chrome://tracing load directly.
type traceFileJSON struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []traceEventJSON `json:"traceEvents"`
}

// WriteTraceEvents writes the spans as Chrome trace-event JSON: each span is
// a complete ("X") event on a per-trace track (tid), so a request's span
// tree renders as nested slices in Perfetto, and each event's args carry the
// exact identifiers (trace_id, span_id, parent_span_id) plus the span's
// recorded attributes for programmatic correlation. Events appear in
// Snapshot order, and track IDs are assigned in order of each trace's first
// span, so the output is deterministic for a fixed input.
func WriteTraceEvents(w io.Writer, events []SpanEvent) error {
	out := traceFileJSON{DisplayTimeUnit: "ms", TraceEvents: []traceEventJSON{}}
	tids := make(map[TraceID]int, len(events))
	for _, e := range events {
		tid, ok := tids[e.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[e.Trace] = tid
			out.TraceEvents = append(out.TraceEvents, traceEventJSON{
				Name: "thread_name",
				Ph:   "M",
				PID:  1,
				TID:  tid,
				Args: map[string]string{"name": "trace " + e.Trace.String()[:8]},
			})
		}
		args := make(map[string]string, 3+len(e.Attrs)/2)
		args["trace_id"] = e.Trace.String()
		args["span_id"] = e.Span.String()
		if !e.Parent.IsZero() {
			args["parent_span_id"] = e.Parent.String()
		}
		for i := 0; i+1 < len(e.Attrs); i += 2 {
			args[e.Attrs[i]] = e.Attrs[i+1]
		}
		out.TraceEvents = append(out.TraceEvents, traceEventJSON{
			Name: e.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(e.Start) / 1e3,
			Dur:  float64(e.DurNS) / 1e3,
			PID:  1,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: encoding trace events: %w", err)
	}
	return nil
}

// WriteTrace writes the recorder's current snapshot as Chrome trace-event
// JSON (see WriteTraceEvents). A nil recorder writes an empty, still
// well-formed trace.
func (fr *FlightRecorder) WriteTrace(w io.Writer) error {
	return WriteTraceEvents(w, fr.Snapshot())
}
