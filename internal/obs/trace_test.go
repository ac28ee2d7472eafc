package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	o := NewSeeded(42)
	ctx, sp := o.StartSpanCtx(context.Background(), "root")
	defer sp.End()
	tc, ok := TraceFromContext(ctx)
	if !ok || !tc.Valid() {
		t.Fatalf("no valid trace context after StartSpanCtx: %+v ok=%v", tc, ok)
	}
	hdr := tc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed traceparent %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected its own output %q", hdr)
	}
	if got != tc {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk without separator
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01",  // non-hex span id
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // non-hex flags
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejection", s)
		}
	}
	// Future-versioned values with appended fields are accepted.
	good := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrastate"
	if _, ok := ParseTraceparent(good); !ok {
		t.Errorf("ParseTraceparent(%q) rejected, want acceptance", good)
	}
}

func TestSeededIDsAreReproducible(t *testing.T) {
	a, b := NewSeeded(7), NewSeeded(7)
	for i := 0; i < 10; i++ {
		if sa, sb := a.ids.spanID(), b.ids.spanID(); sa != sb {
			t.Fatalf("step %d: seeded span IDs diverge: %s vs %s", i, sa, sb)
		}
	}
	if ta, tb := a.ids.traceID(), b.ids.traceID(); ta != tb {
		t.Fatalf("seeded trace IDs diverge: %s vs %s", ta, tb)
	}
	c := NewSeeded(8)
	if a.ids.spanID() == c.ids.spanID() {
		t.Fatal("different seeds produced the same span ID at the same step")
	}
}

func TestStartSpanCtxBuildsParentChildTree(t *testing.T) {
	o := NewSeeded(1)
	ctx, root := o.StartSpanCtx(context.Background(), "server.request", "route", "/view")
	rootTC, _ := TraceFromContext(ctx)
	cctx, child := o.StartSpanCtx(ctx, "stream.current")
	childTC, _ := TraceFromContext(cctx)
	if childTC.TraceID != rootTC.TraceID {
		t.Fatalf("child trace %s != root trace %s", childTC.TraceID, rootTC.TraceID)
	}
	if childTC.SpanID == rootTC.SpanID {
		t.Fatal("child span ID equals parent span ID")
	}
	child.End("generation", "3")
	root.End("status", "200")

	evs := o.Flight().Snapshot()
	if len(evs) != 2 {
		t.Fatalf("flight recorder holds %d events, want 2", len(evs))
	}
	byName := map[string]SpanEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	r, c := byName["server.request"], byName["stream.current"]
	if r.Trace != c.Trace {
		t.Fatalf("events in different traces: %s vs %s", r.Trace, c.Trace)
	}
	if !r.Parent.IsZero() {
		t.Fatalf("root span has parent %s, want zero", r.Parent)
	}
	if c.Parent != r.Span {
		t.Fatalf("child parent %s != root span %s", c.Parent, r.Span)
	}
	wantRoot := []string{"route", "/view", "status", "200"}
	if len(r.Attrs) != len(wantRoot) {
		t.Fatalf("root attrs %v, want %v", r.Attrs, wantRoot)
	}
	for i := range wantRoot {
		if r.Attrs[i] != wantRoot[i] {
			t.Fatalf("root attrs %v, want %v", r.Attrs, wantRoot)
		}
	}
	if len(c.Attrs) != 2 || c.Attrs[0] != "generation" || c.Attrs[1] != "3" {
		t.Fatalf("child attrs %v, want [generation 3]", c.Attrs)
	}
}

func TestStartSpanCtxAdoptsRemoteParent(t *testing.T) {
	remote, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("failed to parse fixture traceparent")
	}
	o := NewSeeded(1)
	ctx := ContextWithTrace(context.Background(), remote)
	_, sp := o.StartSpanCtx(ctx, "server.request")
	sp.End()
	evs := o.Flight().Snapshot()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	if evs[0].Trace != remote.TraceID {
		t.Fatalf("span trace %s, want the remote trace %s", evs[0].Trace, remote.TraceID)
	}
	if evs[0].Parent != remote.SpanID {
		t.Fatalf("span parent %s, want the remote span %s", evs[0].Parent, remote.SpanID)
	}
}

// TestNilObserverAndZeroSpanTraceAPIs exercises the disabled trace surface
// concurrently: run under -race, this pins that the nil fast paths are free
// of shared state.
func TestNilObserverAndZeroSpanTraceAPIs(t *testing.T) {
	var o *Observer
	base := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := o.StartSpanCtx(base, "phase", "k", "v")
				if ctx != base {
					t.Error("nil observer changed the context")
					return
				}
				sp.End("k2", "v2")
				var zero Span
				zero.End()
				if o.Flight() != nil {
					t.Error("nil observer returned a flight recorder")
					return
				}
				if _, ok := TraceFromContext(ctx); ok {
					t.Error("context carries a trace without any observer")
					return
				}
				SampleRuntime(o)
			}
		}()
	}
	wg.Wait()
}

// TestPlainSpanSkipsFlightRecorder: StartSpan (no ctx) spans keep their
// histogram-only contract — the recorder holds request-scoped spans only.
func TestPlainSpanSkipsFlightRecorder(t *testing.T) {
	o := NewSeeded(1)
	sp := o.StartSpan("rung.eval")
	sp.End()
	if n := len(o.Flight().Snapshot()); n != 0 {
		t.Fatalf("plain span landed in the flight recorder (%d events)", n)
	}
	if c := o.Registry().Histogram("span.rung.eval", nil).Count(); c != 1 {
		t.Fatalf("histogram count %d, want 1", c)
	}
}

func TestFoldLabels(t *testing.T) {
	if got := FoldLabels("name", nil); got != "name" {
		t.Fatalf("FoldLabels no labels: %q", got)
	}
	if got := FoldLabels("server.http", []string{"/view", "200"}); got != "server.http:/view:200" {
		t.Fatalf("FoldLabels: %q", got)
	}
}
