package obs

import (
	"context"
	"encoding/hex"
	"sync/atomic"
	"time"

	"spatialrepart/internal/splitmix"
)

// This file is the request-scoped half of the instrumentation layer
// (DESIGN.md §3.18): a TraceContext (W3C Trace Context identifiers) carried
// through context.Context, and context-aware spans that build parent/child
// trees recorded into the observer's flight recorder alongside the usual
// duration histograms. The aggregate Span API in obs.go answers "how long
// does this phase take on average"; this API answers "what did THIS request
// do" — both share the Span type, so End semantics (and the spanend
// analyzer) cover them uniformly.

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// request tree. The zero value means "no trace".
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier of one span within a trace. The
// zero value means "no span".
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-hex-digit lowercase form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-hex-digit lowercase form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// TraceContext identifies one position in a request's span tree: the trace
// the request belongs to and the span that is current at this point. It is
// the value propagated through context.Context and across process boundaries
// as a `traceparent` header.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both identifiers are non-zero, as the W3C spec
// requires.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent renders the context as a W3C `traceparent` header value
// (version 00, sampled flag set: anything this process records is sampled by
// definition).
func (tc TraceContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, tc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, tc.SpanID[:])
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceparent parses a W3C `traceparent` header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). It accepts any version except the
// reserved ff and ignores the flags (this process samples everything it
// records); it rejects malformed lengths, non-hex digits, and the all-zero
// identifiers the spec declares invalid.
func ParseTraceparent(s string) (TraceContext, bool) {
	var tc TraceContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, false
	}
	if len(s) > 55 && s[55] != '-' { // future versions may append "-..." fields
		return tc, false
	}
	if s[0] == 'f' && s[1] == 'f' {
		return tc, false // version ff is forbidden
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(s[0:2])); err != nil {
		return tc, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return tc, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return tc, false
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(s[53:55])); err != nil {
		return tc, false
	}
	if !tc.Valid() {
		return tc, false
	}
	return tc, true
}

// traceCtxKey is the context key TraceContext values travel under.
type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying tc: spans started from the returned
// context become children of tc.SpanID within tc.TraceID. Use it to adopt a
// remote parent (a parsed traceparent header) or to carry trace linkage —
// without cancellation — across an internal asynchrony boundary.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the TraceContext carried by ctx, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// idGen hands out trace and span identifiers from a SplitMix64 stream whose
// state advances atomically, so concurrent spans get distinct IDs without
// locks and a seeded generator yields a reproducible ID sequence in
// single-goroutine tests. IDs are identifiers, not data: nothing the
// instrumented code returns ever depends on them.
type idGen struct {
	state atomic.Uint64
}

// next is one SplitMix64 step over the shared atomic state.
func (g *idGen) next() uint64 {
	return splitmix.Mix(g.state.Add(splitmix.Gamma))
}

// traceID returns a fresh non-zero trace identifier.
func (g *idGen) traceID() TraceID {
	var t TraceID
	putUint64(t[0:8], g.next())
	putUint64(t[8:16], g.next())
	if t.IsZero() {
		t[15] = 1
	}
	return t
}

// spanID returns a fresh non-zero span identifier.
func (g *idGen) spanID() SpanID {
	var s SpanID
	putUint64(s[:], g.next())
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// putUint64 writes v big-endian into b[:8].
func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// StartSpanCtx begins a request-scoped span as a child of the TraceContext
// carried by ctx (starting a fresh trace when ctx carries none) and returns
// a derived context under which further spans become this span's children.
// Optional attrs are alternating key/value string pairs attached to the
// span's flight-recorder event. End records the duration into the histogram
// "span.<name>" exactly like StartSpan, and additionally deposits the
// completed span — identifiers, parent, timing, attributes — in the
// observer's flight recorder.
//
// A nil observer returns ctx unchanged and the zero Span at the usual
// one-branch cost; a zero Span's End remains a no-op.
func (o *Observer) StartSpanCtx(ctx context.Context, name string, attrs ...string) (context.Context, Span) {
	if o == nil {
		return ctx, Span{}
	}
	return o.startSpanCtx(ctx, name, attrs)
}

//go:noinline
func (o *Observer) startSpanCtx(ctx context.Context, name string, attrs []string) (context.Context, Span) {
	parent, _ := TraceFromContext(ctx)
	tc := TraceContext{TraceID: parent.TraceID, SpanID: o.ids.spanID()}
	if tc.TraceID.IsZero() {
		tc.TraceID = o.ids.traceID()
	}
	sp := Span{o: o, name: name, start: time.Now(), tc: tc, parent: parent.SpanID, attrs: attrs}
	return ContextWithTrace(ctx, tc), sp
}
