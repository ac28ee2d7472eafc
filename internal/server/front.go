package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"spatialrepart/internal/fault"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/splitmix"
)

// Front is the request envelope both HTTP front ends mount their handlers
// on: the shard server (prefix "server") and the cluster coordinator
// (prefix "cluster"). It owns the route table, admission control with its
// wait queue, token-bucket rate limiting, per-request deadlines and body
// caps, panic isolation, the RED series, request spans, the sampled access
// log, jittered Retry-After hints on sheds, and graceful drain. Every
// metric, span and fault-point name it emits is the prefix plus a fixed
// suffix, so the two front ends stay apart in one registry.
type Front struct {
	prefix string
	names  frontNames
	cfg    Config
	adm    *admission
	lim    *limiter
	clock  Clock
	obs    *obs.Observer
	flt    *fault.Injector

	draining atomic.Bool
	httpSrv  *http.Server
	mux      *http.ServeMux

	logger   *slog.Logger
	logEvery uint64
	reqSeq   atomic.Uint64

	// retryRng is the SplitMix64 state behind the jittered Retry-After
	// hints. Advanced with a single atomic add per shed, so concurrent
	// sheds draw distinct, deterministic values without a lock.
	retryRng atomic.Uint64
}

// frontNames are the per-request metric, span and fault-point names,
// joined to the prefix once at construction rather than on every request.
type frontNames struct {
	request, requests, admitted, inflight, queueDepth string
	httpRequests, httpErrors, httpLatency             string
}

// NewFront returns a Front with an empty route table. It applies the
// envelope defaults to cfg's zero (or negative) envelope fields: 64
// in-flight, a queue of 16, a 100ms queue wait, a 5s request timeout, a 1s
// Retry-After and a 1 MiB body cap. cfg.Source is not consulted.
func NewFront(prefix string, cfg Config) *Front {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	logEvery := cfg.AccessLogEvery
	if logEvery <= 0 {
		logEvery = 1
	}
	f := &Front{
		prefix: prefix,
		names: frontNames{
			request:      prefix + ".request",
			requests:     prefix + ".requests",
			admitted:     prefix + ".admitted",
			inflight:     prefix + ".inflight",
			queueDepth:   prefix + ".queue_depth",
			httpRequests: prefix + ".http.requests",
			httpErrors:   prefix + ".http.errors",
			httpLatency:  prefix + ".http.latency_ns",
		},
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		lim:      newLimiter(cfg.RatePerSec, cfg.RateBurst, cfg.ClientRatePerSec, cfg.ClientRateBurst, clock.Now()),
		clock:    clock,
		obs:      cfg.Obs,
		flt:      cfg.Fault,
		mux:      http.NewServeMux(),
		logger:   cfg.Logger,
		logEvery: uint64(logEvery),
	}
	seed := cfg.RetryAfterJitterSeed
	if seed == 0 {
		seed = 1
	}
	f.retryRng.Store(uint64(seed))
	f.adm.OnQueued = func() { f.obs.Count(prefix+".queued", 1) }
	return f
}

// HandlerFunc is an envelope-wrapped handler: it returns an error from the
// taxonomy (or any error, mapped to 500) instead of writing statuses itself.
type HandlerFunc func(w http.ResponseWriter, r *http.Request) error

// HandleProbe mounts a liveness/readiness handler at route behind panic
// isolation and a method check only: probes must keep answering while the
// query path sheds load, so they bypass rate limiting and admission.
func (f *Front) HandleProbe(route string, h HandlerFunc) {
	f.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer f.recoverRequest(sw)
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			WriteError(sw, ErrMethodNotAllowed.WithDetail("%s not allowed", r.Method))
			return
		}
		if err := h(sw, r); err != nil {
			WriteError(sw, err)
		}
	})
}

// HandleQuery mounts h at route inside the full robustness envelope,
// outermost first: request accounting (span, RED metrics, access log), panic
// isolation, method check, body cap, rate limiting, per-request deadline,
// admission control, the "<prefix>.request" fault point, then the handler.
// route is also the static label of the per-route×status series, so metric
// cardinality stays bounded by the route table, not by request URLs.
func (f *Front) HandleQuery(route string, h HandlerFunc) {
	f.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		f.obs.Count(f.names.requests, 1)

		// Adopt an inbound W3C traceparent (or start a fresh trace) and open
		// the request's root span. The response echoes the request's own
		// trace context so callers can find it in /debug/traces.
		ctx := r.Context()
		if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		ctx, sp := f.obs.StartSpanCtx(ctx, f.names.request, "route", route) //spatialvet:ignore spanend ended by the deferred finishRequest below, which needs the final status first
		if tc, ok := obs.TraceFromContext(ctx); ok {
			sw.Header().Set("traceparent", tc.Traceparent())
		}
		start := f.clock.Now()
		shed := ""
		// finish must be registered BEFORE the recover so panic unwinding
		// recovers (writing the 500) first and accounting sees that status.
		defer func() { f.finishRequest(sw, route, shed, sp, start) }()
		defer f.recoverRequest(sw)

		if r.Method != http.MethodGet {
			WriteError(sw, ErrMethodNotAllowed.WithDetail("%s not allowed; query endpoints are GET-only", r.Method))
			return
		}
		r.Body = http.MaxBytesReader(sw, r.Body, f.cfg.MaxBodyBytes)

		if ok, wait := f.lim.allow(clientKey(r), f.clock.Now()); !ok {
			f.obs.Count(f.prefix+".rate_limited", 1)
			shed = "rate_limited"
			WriteError(sw, ErrRateLimited.
				WithDetail("token bucket empty; retry after %v", wait).
				withRetryAfter(wait))
			return
		}

		ctx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		queued, err := f.adm.Admit(ctx, f.clock, f.cfg.QueueWait)
		if err != nil {
			shed = f.countShed(queued, err)
			WriteError(sw, f.attachRetryAfter(err))
			return
		}
		defer f.adm.Release()
		f.obs.Count(f.names.admitted, 1)
		inflight, qdepth := f.adm.Depth()
		f.obs.SetGauge(f.names.inflight, float64(inflight))
		f.obs.SetGauge(f.names.queueDepth, float64(qdepth))

		if ferr := f.flt.Hit(f.names.request); ferr != nil {
			WriteError(sw, ferr)
			return
		}
		if err := h(sw, r); err != nil {
			if ctx.Err() != nil {
				err = ErrTimeout.WithDetail("request deadline (%v) expired: %v", f.cfg.RequestTimeout, err)
			}
			WriteError(sw, err)
		}
	})
}

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler { return f.mux }

// Draining reports whether Shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// Clock returns the front's time source (the real clock unless Config.Clock
// substituted one).
func (f *Front) Clock() Clock { return f.clock }

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0"), starts the hardened HTTP
// server in a background goroutine, and returns the bound address. Stop it
// with Shutdown.
func (f *Front) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", f.prefix, addr, err)
	}
	srv := obs.HardenedServer(f.Handler())
	f.httpSrv = srv
	//spatialvet:ignore goroleak Serve blocks until the listener closes; Shutdown stops it and awaits in-flight requests
	go func() { _ = srv.Serve(ln) }() //spatialvet:ignore errdrop Serve returns ErrServerClosed on shutdown; Shutdown owns the lifecycle
	return ln.Addr().String(), nil
}

// Shutdown drains the front gracefully: admission shuts (new requests get
// 503 draining, queued waiters are rejected), Draining turns true so
// readiness can flip, every already-admitted request runs to completion, and
// the listener closes — all within ctx's deadline. If the deadline expires
// with requests still in flight the remaining connections are closed
// forcibly and the deadline error is returned. The drain duration lands in
// the <prefix>.drain_ns gauge.
func (f *Front) Shutdown(ctx context.Context) error {
	start := f.clock.Now()
	f.draining.Store(true)
	f.obs.SetGauge(f.prefix+".draining", 1)
	f.adm.BeginDrain()
	drainErr := f.adm.AwaitDrained(ctx)
	f.obs.SetGauge(f.prefix+".drain_ns", float64(f.clock.Now().Sub(start).Nanoseconds()))
	if f.httpSrv != nil {
		if drainErr != nil {
			f.httpSrv.Close() //spatialvet:ignore errdrop forced close after a blown drain deadline; the deadline error is the one reported
		} else if err := f.httpSrv.Shutdown(ctx); err != nil {
			f.httpSrv.Close() //spatialvet:ignore errdrop forced close fallback; the Shutdown error is the one reported
			return err
		}
	}
	return drainErr
}

// finishRequest closes out one query request: it ends the request span
// (status and shed reason become span attributes), records the RED
// route×status series, and emits the sampled structured access log line.
func (f *Front) finishRequest(sw *statusWriter, route, shed string, sp obs.Span, start time.Time) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	elapsed := f.clock.Now().Sub(start)
	code := strconv.Itoa(status)
	if f.obs.Enabled() {
		f.obs.Count(obs.FoldLabels(f.names.httpRequests, []string{route, code}), 1)
		if status >= 500 {
			f.obs.Count(obs.FoldLabels(f.names.httpErrors, []string{route, code}), 1)
		}
		f.obs.Observe(obs.FoldLabels(f.names.httpLatency, []string{route, code}), float64(elapsed.Nanoseconds()))
	}
	if sp.Traced() {
		sp.End("status", code, "shed", shed)
	} else {
		sp.End()
	}
	if f.logger == nil {
		return
	}
	if n := f.reqSeq.Add(1); (n-1)%f.logEvery != 0 {
		return
	}
	traceID := ""
	if tc, ok := obs.ParseTraceparent(sw.Header().Get("traceparent")); ok {
		traceID = tc.TraceID.String()
	}
	f.logger.Info("request",
		slog.String("trace_id", traceID),
		slog.String("route", route),
		slog.Int("status", status),
		slog.String("shed", shed),
		slog.Duration("latency", elapsed),
	)
}

// recoverRequest converts a handler panic into a 500 on this one request:
// the goroutine's damage stays contained, the counter records it, and every
// other request proceeds untouched.
func (f *Front) recoverRequest(sw *statusWriter) {
	if rec := recover(); rec != nil {
		f.obs.Count(f.prefix+".panics", 1)
		WriteError(sw, ErrInternal.WithDetail("handler panicked: %v", rec))
	}
}

// countShed records which kind of shed occurred and returns its label (the
// span attribute / access-log shed reason).
func (f *Front) countShed(queued bool, err error) string {
	reason := "capacity"
	switch {
	case is(err, ErrDraining):
		reason = "draining"
		f.obs.Count(f.prefix+".shed_draining", 1)
	case queued:
		reason = "queue_timeout"
		f.obs.Count(f.prefix+".shed_timeout", 1)
	default:
		f.obs.Count(f.prefix+".shed_capacity", 1)
	}
	f.obs.Count(f.prefix+".shed", 1)
	return reason
}

// attachRetryAfter decorates shed errors with a jittered Retry-After hint;
// other errors pass through. Each shed draws a deterministic factor in
// [0.5, 1.0) from the front's seeded SplitMix64 stream, spreading the
// moment a synchronized burst of shed clients comes back.
func (f *Front) attachRetryAfter(err error) error {
	se := asError(err)
	if (is(se, ErrOverloaded) || is(se, ErrDraining)) && se.RetryAfter == 0 {
		z := splitmix.Mix(f.retryRng.Add(splitmix.Gamma))
		factor := 0.5 + 0.5*splitmix.Float64(z)
		return se.withRetryAfter(time.Duration(float64(f.cfg.RetryAfter) * factor))
	}
	return err
}

// is reports whether err matches the sentinel by Code.
func is(err error, sentinel *Error) bool {
	se := asError(err)
	return se.Code == sentinel.Code
}

// clientKey extracts the rate-limiting key (remote IP without port).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// WriteJSON writes v as the 200 response.
func WriteJSON(w http.ResponseWriter, v any) error {
	b, err := EncodeJSON(v)
	if err != nil {
		return err
	}
	return WriteBody(w, b)
}

// EncodeJSON returns the exact bytes WriteJSON sends for v: the
// json.Encoder encoding, trailing newline included. Handlers that memoize a
// response encode it here, so cached and uncached bodies cannot drift.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteBody writes an already-encoded JSON body as the 200 response.
func WriteBody(w http.ResponseWriter, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("writing response: %w", err)
	}
	return nil
}
