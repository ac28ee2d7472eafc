// Package stream adapts the re-partitioning framework to streaming scenarios
// — the last of the paper's §VI future-work directions. A Repartitioner
// ingests raw spatial records, maintains per-cell aggregates, and keeps a
// re-partitioned view of the grid that is recomputed lazily: an existing
// partition is retained as long as re-allocating its feature vectors on the
// freshest data keeps the information loss within the threshold, and a full
// re-partitioning runs only when the stream has drifted past that bound.
// Between recomputations readers pay only the (cheap) feature re-allocation,
// and a read with no records since the last install pays nothing at all.
//
// Serving is fault tolerant (DESIGN.md §3.16): once any view exists, Current
// never returns an error — a failed, panicking, or deadline-overrunning
// recompute falls back to the last good view flagged Degraded, retries are
// scheduled with capped exponential backoff and deterministic jitter, and a
// circuit breaker stops a persistently failing grid from burning CPU. The
// aggregate state survives restarts via Checkpoint/Restore.
package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/core"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/wal"
)

// Defaults for the retry/backoff and circuit-breaker policy (Options fields
// left zero).
const (
	DefaultFailureThreshold = 3
	DefaultInitialBackoff   = 100 * time.Millisecond
	DefaultMaxBackoff       = 30 * time.Second
)

// Options configures a Repartitioner.
type Options struct {
	// Threshold is the IFL bound θ every served partition must satisfy.
	Threshold float64
	// MinRecordsBetweenChecks throttles staleness checks: Current() reuses
	// the cached view until at least this many records arrived since the
	// last check (0 = check on every call that has new records to fold in).
	// Whatever the setting, a read with no records since the last install
	// serves the installed view and never refreshes.
	MinRecordsBetweenChecks int
	// Schedule for full recomputations (default core.ScheduleExact, the
	// zero value).
	Schedule core.Schedule
	// Workers bounds the goroutines used by refreshes and full recomputes
	// (0 = GOMAXPROCS); passed through to core.Options.Workers.
	Workers int
	// Obs, when non-nil, receives the stream's metrics: ingestion counters,
	// refresh/recompute latencies, the served generation, the record lag
	// behind the served view, and the breaker/degraded-serving state.
	// Forwarded to core.Options.Obs, so full recompute phase timings land in
	// the same registry. Nil disables all instrumentation at the cost of one
	// branch per hook.
	Obs *obs.Observer

	// RecomputeTimeout bounds one full recompute: on expiry the attempt is
	// abandoned (core.RepartitionCtx observes the deadline within one rung)
	// and handled like any other failure. 0 = no deadline.
	RecomputeTimeout time.Duration
	// FailureThreshold is the number of CONSECUTIVE failed attempts after
	// which the circuit breaker opens (≤ 0 = DefaultFailureThreshold).
	FailureThreshold int
	// InitialBackoff is the retry delay after the first failure; each
	// further consecutive failure doubles it up to MaxBackoff. Zero values
	// take the defaults.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// JitterSeed seeds the deterministic backoff jitter (0 = a fixed
	// default), so a fleet of streams can be de-synchronized while any
	// single stream's retry schedule stays reproducible.
	JitterSeed int64

	// Fault, when non-nil, is consulted at the stream's named injection
	// points ("stream.recompute", "stream.checkpoint", "stream.restore") —
	// the chaos-testing hook. Nil costs one branch per point.
	Fault *fault.Injector

	// WAL, when non-nil, makes ingestion durable: Add appends the record to
	// the write-ahead log BEFORE applying it to the aggregates, both under
	// the aggregate lock, so the log sequence and the aggregate state can
	// never disagree. A failed append returns the error and applies nothing
	// — the record was not acked and the sender must retry. Recovery is
	// checkpoint + ReplayWAL: checkpoints embed the WAL sequence they cover,
	// and replay re-applies only sequences beyond it (exactly-once). The
	// caller owns the log's lifecycle (Open/Close/TruncateThrough).
	WAL *wal.Log
}

// Stats reports the stream's bookkeeping counters.
type Stats struct {
	Accepted   int // records inside the bounds
	Dropped    int // records outside the bounds
	Recomputes int // full re-partitionings performed
	Refreshes  int // cheap feature-only refreshes that kept the partition

	// RecomputeFailures counts attempts (refresh or full recompute) that
	// failed — error, injected fault, panic, or deadline; LastRecomputeErr
	// retains the most recent failure. Without these a failure was visible
	// only to the single Current caller that hit it.
	RecomputeFailures int
	LastRecomputeErr  error

	// DegradedServes counts Current calls that fell back to the last-good
	// view (failure, open breaker, or backoff window).
	DegradedServes int
	// Breaker is the circuit breaker's current state; BreakerOpens counts
	// closed→open transitions; ConsecutiveFailures is the current failure
	// streak (reset by any success).
	Breaker             breaker.State
	BreakerOpens        int
	ConsecutiveFailures int
	// StaleRecords is the number of ingested records not yet reflected in
	// the served view — the staleness bound a degraded serve is subject to.
	StaleRecords int
	// Checkpoints counts successful Checkpoint writes.
	Checkpoints int

	// CheckpointFailures counts failed checkpoint attempts reported via
	// RecordCheckpointResult; LastCheckpointErr retains the most recent one
	// (nil again after the next success). LastCheckpointAge is the time
	// since the last successful attempt (0 = none recorded yet). Without
	// these, a streaming server whose periodic checkpoints silently rot was
	// visible only in logs. Process-local: not persisted by Checkpoint.
	CheckpointFailures int
	LastCheckpointErr  error
	LastCheckpointAge  time.Duration

	// WALSeq is the write-ahead-log sequence of the last record applied to
	// the aggregates — the exactly-once replay cursor every checkpoint
	// embeds. WALAppended and WALReplayed count records this process wrote
	// to and re-applied from the WAL; both are process-local, not persisted.
	WALSeq      uint64
	WALAppended int
	WALReplayed int

	// HasView reports whether a servable view currently exists — the
	// serving layer's readiness signal (false until the first successful
	// Current, and again right after Restore until the next recompute).
	// Generation is the served view's install generation. Both are
	// populated by Stats() from serving state, not persisted counters.
	HasView    bool
	Generation int
}

// View is one served partition plus its serving metadata. The embedded
// dataset is immutable once served; Degraded marks a view served past a
// failed or skipped refresh (its staleness is bounded by Stats.StaleRecords
// at serve time). Views are plain comparable values.
type View struct {
	*core.Repartitioned
	// Degraded is true when the view was served although the stream knows
	// fresher records exist that it could not fold in (recompute failed, the
	// breaker is open, or a retry is still backing off).
	Degraded bool
	// Generation identifies the install that produced the view; it bumps on
	// every successful refresh or recompute. Reads that have no new records
	// to fold in do neither, so they serve the same generation.
	Generation int
}

// Repartitioner maintains a re-partitioned view over a streaming grid. It is
// safe for concurrent use: Add only ever takes the (cheap) aggregate lock,
// while the expensive refresh/recompute work in Current runs on a snapshot
// OUTSIDE that lock, so ingestion is never stalled behind a re-partitioning.
type Repartitioner struct {
	mu     sync.Mutex // guards aggregates, current, sinceLastCheck, stats, breaker
	bounds grid.Bounds
	rows   int
	cols   int
	attrs  []grid.Attribute
	opts   Options

	counts []int
	sums   []float64
	cats   []map[float64]int // per (cell, categorical attr) vote maps
	catCol []int

	current        *core.Repartitioned
	generation     int // bumped on every refresh/recompute swap-in
	sinceLastCheck int
	stats          Stats
	brk            *breaker.Breaker

	// walSeq is the WAL sequence of the last record applied to the
	// aggregates (0 = none). Because Add holds mu across the WAL append and
	// the aggregate apply, a checkpoint's snapshot of walSeq is always
	// consistent with the aggregates it captures.
	walSeq uint64
	// lastCheckpoint is the time of the last successful checkpoint attempt
	// recorded via RecordCheckpointResult (zero = none).
	lastCheckpoint time.Time

	// now is the breaker's clock; a test hook (replaced only before any
	// concurrency starts).
	now func() time.Time

	// computeMu serializes the out-of-lock refresh/recompute work so
	// concurrent Current calls do not duplicate a full re-partitioning.
	// It is always acquired WITHOUT mu held.
	computeMu sync.Mutex

	// beforeCompute, when non-nil, runs after the aggregates are snapshotted
	// and all locks on the ingestion path are released, right before the
	// expensive computation. Test hook: lets tests assert Add is not blocked
	// mid-recompute.
	beforeCompute func()
}

// New creates a streaming repartitioner over the given grid geometry.
func New(bounds grid.Bounds, rows, cols int, attrs []grid.Attribute, opts Options) (*Repartitioner, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("stream: invalid grid %dx%d", rows, cols)
	}
	if err := bounds.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("stream: threshold %v outside [0,1]", opts.Threshold)
	}
	if err := grid.ValidateAttrs(attrs); err != nil {
		return nil, err
	}
	a := make([]grid.Attribute, len(attrs))
	copy(a, attrs)
	threshold := opts.FailureThreshold
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	initial := opts.InitialBackoff
	if initial <= 0 {
		initial = DefaultInitialBackoff
	}
	max := opts.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	if max < initial {
		max = initial
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	s := &Repartitioner{
		bounds: bounds,
		rows:   rows,
		cols:   cols,
		attrs:  a,
		opts:   opts,
		counts: make([]int, rows*cols),
		sums:   make([]float64, rows*cols*len(attrs)),
		brk:    breaker.New(threshold, initial, max, seed),
		//spatialvet:ignore clockdirect the production default for the injectable clock
		now: time.Now,
	}
	for k, at := range a {
		if at.Categorical {
			s.catCol = append(s.catCol, k)
		}
	}
	if len(s.catCol) > 0 {
		s.cats = make([]map[float64]int, rows*cols*len(s.catCol))
	}
	return s, nil
}

// Add ingests one record, updating the cell aggregates. Records outside the
// bounds are counted and dropped (they never touch the WAL — a record that
// mutates no state needs no durability).
//
// With Options.WAL set, the record is appended to the log before it is
// applied, both under the aggregate lock: a successful return means the
// record is in the WAL (durable per the log's sync policy) AND in the
// aggregates. A failed append applies nothing and surfaces the error — the
// record was not acked and the sender must retry after the log is reopened.
func (s *Repartitioner) Add(rec grid.Record) error {
	if len(rec.Values) != len(s.attrs) {
		return fmt.Errorf("stream: record has %d values, want %d", len(rec.Values), len(s.attrs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, c, ok := s.bounds.CellOf(rec.Lat, rec.Lon, s.rows, s.cols)
	if !ok {
		s.stats.Dropped++
		s.opts.Obs.Count("stream.dropped", 1)
		return nil
	}
	if s.opts.WAL != nil {
		seq, err := s.opts.WAL.Append(wal.EncodeRecord(rec))
		if err != nil {
			return fmt.Errorf("stream: wal append: %w", err)
		}
		s.walSeq = seq
		s.stats.WALAppended++
	}
	s.applyLocked(rec, r*s.cols+c)
	return nil
}

// applyLocked folds one in-bounds record into the aggregates. Caller holds
// s.mu and has resolved the cell index. Shared by Add and ReplayWAL so a
// replayed record takes exactly the ingestion path it originally took.
func (s *Repartitioner) applyLocked(rec grid.Record, idx int) {
	s.counts[idx]++
	for k, v := range rec.Values {
		s.sums[idx*len(s.attrs)+k] += v
	}
	for ci, k := range s.catCol {
		m := s.cats[idx*len(s.catCol)+ci]
		if m == nil {
			m = map[float64]int{}
			s.cats[idx*len(s.catCol)+ci] = m
		}
		m[rec.Values[k]]++
	}
	s.stats.Accepted++
	s.sinceLastCheck++
	s.opts.Obs.Count("stream.accepted", 1)
	s.opts.Obs.SetGauge("stream.lag_records", float64(s.sinceLastCheck))
}

// ReplayWAL re-applies every WAL record the aggregate state has not yet
// absorbed: sequences strictly greater than the state's WALSeq cursor (0 on
// a fresh stream, the embedded sequence after a checkpoint Restore). Replay
// is exactly-once by that comparison — a record that reached the WAL but
// whose apply was lost with the crashed process is re-applied, a record the
// restored checkpoint already covers is skipped — even if the process died
// between the WAL append and the aggregate apply. Returns the number of
// records applied. Call it on startup, after any Restore, before serving.
func (s *Repartitioner) ReplayWAL() (int, error) {
	w := s.opts.WAL
	if w == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	err := w.Replay(s.walSeq, func(seq uint64, payload []byte) error {
		rec, derr := wal.DecodeRecord(payload)
		if derr != nil {
			return derr
		}
		if len(rec.Values) != len(s.attrs) {
			return fmt.Errorf("stream: wal record %d has %d values, want %d (schema changed under a live WAL?)",
				seq, len(rec.Values), len(s.attrs))
		}
		r, c, ok := s.bounds.CellOf(rec.Lat, rec.Lon, s.rows, s.cols)
		if !ok {
			// Only appended records replay, and only in-bounds records are
			// appended; an out-of-bounds replay means the geometry changed
			// despite the directory stamp.
			return fmt.Errorf("stream: wal record %d at (%v, %v) is outside the grid bounds", seq, rec.Lat, rec.Lon)
		}
		s.applyLocked(rec, r*s.cols+c)
		s.walSeq = seq
		n++
		return nil
	})
	s.stats.WALReplayed += n
	if err != nil {
		return n, fmt.Errorf("stream: wal replay: %w", err)
	}
	return n, nil
}

// RecordCheckpointResult records the outcome of one full checkpoint attempt
// — including the I/O the caller performs around Checkpoint (temp file,
// fsync, rename) that this package cannot see. Failures feed
// Stats.CheckpointFailures/LastCheckpointErr; a success clears the error and
// resets the age clock. cmd/repart calls this on every periodic checkpoint
// so silent durability rot is visible in /stats, not just logs.
func (s *Repartitioner) RecordCheckpointResult(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.CheckpointFailures++
		s.stats.LastCheckpointErr = err
		s.opts.Obs.Count("stream.checkpoint_failures", 1)
		return
	}
	s.stats.LastCheckpointErr = nil
	s.lastCheckpoint = s.now()
}

// snapshotGrid materializes the current aggregates as a grid.
func (s *Repartitioner) snapshotGrid() *grid.Grid {
	g := grid.New(s.rows, s.cols, s.attrs)
	p := len(s.attrs)
	fv := make([]float64, p)
	for idx, n := range s.counts {
		if n == 0 {
			continue
		}
		r, c := idx/s.cols, idx%s.cols
		for k := 0; k < p; k++ {
			v := s.sums[idx*p+k]
			if s.attrs[k].Agg == grid.Average {
				v /= float64(n)
				if s.attrs[k].Integer {
					v = math.Round(v)
				}
			}
			fv[k] = v
		}
		for ci, k := range s.catCol {
			fv[k] = modalVote(s.cats[idx*len(s.catCol)+ci])
		}
		g.SetVector(r, c, fv)
	}
	return g
}

// Current returns a re-partitioned view whose information loss against the
// freshest aggregates is within the threshold, retaining the previous
// partition when a feature-only refresh suffices and re-partitioning from
// scratch otherwise.
//
// Failure policy: once any view exists, Current never returns an error. A
// failed attempt (error, injected fault, panic, or RecomputeTimeout expiry)
// serves the last good view flagged Degraded, schedules the next attempt
// with capped exponential backoff, and — after FailureThreshold consecutive
// failures — opens the circuit breaker so no further work is attempted until
// a half-open probe succeeds. Only a stream that has never produced a view
// surfaces the error directly.
//
// The aggregate lock is held only long enough to snapshot the aggregates and
// to swap the finished result in: concurrent Add calls keep ingesting while
// the refresh or recompute runs. Concurrent Current calls are serialized on
// a separate lock so a recompute is never duplicated; a caller that queued
// behind another goroutine's recompute serves that (fresher) result instead
// of starting its own.
func (s *Repartitioner) Current() (View, error) {
	return s.CurrentCtx(context.Background())
}

// CurrentCtx is Current with request-scoped tracing: when ctx carries a trace
// context (and an observer is attached), the call is wrapped in a
// stream.current span whose end attributes record the served generation,
// whether the serve was degraded, and how the view was produced (cached,
// refresh, recompute, degraded, error). Refresh and recompute work links into
// the same trace, so a traced request shows exactly which stale generation a
// degraded response served. The ctx is used for TRACE LINKAGE ONLY: a full
// recompute is shared work that outlives any one request, so its cancellation
// stays governed by Options.RecomputeTimeout, never by ctx's deadline.
func (s *Repartitioner) CurrentCtx(ctx context.Context) (View, error) {
	ctx, sp := s.opts.Obs.StartSpanCtx(ctx, "stream.current")
	v, source, err := s.currentCtx(ctx)
	if sp.Traced() {
		sp.End("generation", strconv.Itoa(v.Generation),
			"degraded", strconv.FormatBool(v.Degraded),
			"source", source)
	} else {
		sp.End()
	}
	return v, err
}

// currentCtx is the shared serve path; the source label feeds the span
// attributes only and never affects the returned view.
func (s *Repartitioner) currentCtx(ctx context.Context) (View, string, error) {
	s.mu.Lock()
	// sinceLastCheck == 0 means the installed view was computed from a
	// snapshot holding every accepted record: a refresh would reproduce it.
	if s.current != nil && (s.sinceLastCheck == 0 || s.sinceLastCheck < s.opts.MinRecordsBetweenChecks) {
		v := s.viewLocked(false)
		s.mu.Unlock()
		return v, "cached", nil
	}
	gen := s.generation
	s.mu.Unlock()

	s.computeMu.Lock()
	defer s.computeMu.Unlock()

	// Snapshot under the aggregate lock; everything expensive runs outside.
	s.mu.Lock()
	if s.generation != gen && s.current != nil {
		// Another goroutine swapped a view in while we waited: it was
		// computed from aggregates at least as fresh as our call.
		v := s.viewLocked(false)
		s.mu.Unlock()
		return v, "cached", nil
	}
	// Retry/backoff and breaker gate. With a last-good view to fall back
	// on, an attempt inside the backoff window (or with the breaker open)
	// is skipped and the stale view is served flagged Degraded; with no
	// view there is nothing to serve, so the attempt always proceeds.
	if s.current != nil && !s.brk.Allow(s.now()) {
		v := s.degradedLocked()
		s.mu.Unlock()
		return v, "degraded", nil
	}
	probing := s.brk.State() == breaker.HalfOpen
	g := s.snapshotGrid()
	cur := s.current
	snapshotted := s.sinceLastCheck
	s.mu.Unlock()

	if probing {
		s.opts.Obs.Count("stream.breaker_probes", 1)
	}
	if s.beforeCompute != nil {
		s.beforeCompute()
	}

	rp, recompute, err := s.attempt(ctx, g, cur)
	if err != nil {
		s.opts.Obs.Count("stream.recompute_failures", 1)
		s.mu.Lock()
		s.stats.RecomputeFailures++
		s.stats.LastRecomputeErr = err
		opensBefore := s.brk.Opens()
		s.brk.Failure(s.now())
		if s.brk.Opens() != opensBefore {
			s.opts.Obs.Count("stream.breaker_opens", 1)
		}
		s.breakerObsLocked()
		if s.current != nil {
			v := s.degradedLocked()
			s.mu.Unlock()
			return v, "degraded", nil
		}
		s.mu.Unlock()
		return View{}, "error", err
	}
	source := "refresh"
	if recompute {
		source = "recompute"
	}
	return s.install(rp, snapshotted, recompute), source, nil
}

// attempt runs one refresh-or-recompute on the snapshotted grid, outside all
// locks. It converts panics (a poisoned grid, an injected chaos panic) into
// errors so a failing recompute can never take the serving path down with it.
// ctx carries trace linkage only — see CurrentCtx.
func (s *Repartitioner) attempt(ctx context.Context, g *grid.Grid, cur *core.Repartitioned) (rp *core.Repartitioned, recompute bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.opts.Obs.Count("stream.recompute_panics", 1)
			rp, recompute = nil, false
			err = fmt.Errorf("stream: recompute panicked: %v", r)
		}
	}()

	if cur != nil && compatiblePartition(g, cur.Partition) {
		_, sp := s.opts.Obs.StartSpanCtx(ctx, "stream.refresh")
		feats := core.AllocateFeaturesParallel(g, cur.Partition, s.opts.Workers)
		ifl := core.IFLParallel(g, cur.Partition, feats, s.opts.Workers)
		sp.End()
		if ifl <= s.opts.Threshold {
			return &core.Repartitioned{
				Source:          g,
				Partition:       cur.Partition,
				Features:        feats,
				IFL:             ifl,
				MinAdjVariation: cur.MinAdjVariation,
			}, false, nil
		}
	}

	// The deadline context is created before the fault hook so an injected
	// delay consumes the budget exactly like a slow real recompute would. It
	// derives from Background, NOT from ctx: the recompute is shared work and
	// a request deadline must never cancel it.
	//spatialvet:ignore ctxflow sanctioned detachment: the recompute is shared work and must outlive any single request
	runCtx := context.Background()
	cancel := func() {}
	if s.opts.RecomputeTimeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, s.opts.RecomputeTimeout)
	}
	defer cancel()
	if ferr := s.opts.Fault.Hit("stream.recompute"); ferr != nil {
		return nil, false, fmt.Errorf("stream: recompute: %w", ferr)
	}
	rctx, sp := s.opts.Obs.StartSpanCtx(ctx, "stream.recompute")
	// Graft the recompute span's trace context onto the deadline context so
	// core's repart.run span joins the request tree without inheriting the
	// request's cancellation.
	if tc, ok := obs.TraceFromContext(rctx); ok {
		runCtx = obs.ContextWithTrace(runCtx, tc)
	}
	start := s.now()
	rp, err = core.RepartitionCtx(runCtx, g, core.Options{
		Threshold: s.opts.Threshold,
		Schedule:  s.opts.Schedule,
		Workers:   s.opts.Workers,
		Obs:       s.opts.Obs,
	})
	sp.End()
	s.opts.Obs.SetGauge("stream.last_recompute_ns", float64(s.now().Sub(start).Nanoseconds()))
	if err != nil {
		return nil, false, err
	}
	return rp, true, nil
}

// install swaps a freshly computed view in under the aggregate lock and
// returns it. Records that arrived while the computation ran are not
// reflected in the snapshot, so only the snapshotted portion of the
// staleness counter is consumed. Any successful install closes the breaker
// and resets the retry schedule.
func (s *Repartitioner) install(rp *core.Repartitioned, snapshotted int, recompute bool) View {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.current = rp
	s.generation++
	s.sinceLastCheck -= snapshotted
	s.brk.Success()
	s.breakerObsLocked()
	if recompute {
		s.stats.Recomputes++
		s.opts.Obs.Count("stream.recomputes", 1)
	} else {
		s.stats.Refreshes++
		s.opts.Obs.Count("stream.refreshes", 1)
	}
	s.opts.Obs.SetGauge("stream.generation", float64(s.generation))
	s.opts.Obs.SetGauge("stream.lag_records", float64(s.sinceLastCheck))
	s.opts.Obs.SetGauge("stream.served_groups", float64(rp.NumGroups()))
	s.opts.Obs.SetGauge("stream.served_ifl", rp.IFL)
	return s.viewLocked(false)
}

// viewLocked wraps the current dataset as a View. Caller holds s.mu.
func (s *Repartitioner) viewLocked(degraded bool) View {
	return View{Repartitioned: s.current, Degraded: degraded, Generation: s.generation}
}

// degradedLocked records and returns a degraded serve of the last-good view.
// Caller holds s.mu and has checked s.current != nil.
func (s *Repartitioner) degradedLocked() View {
	s.stats.DegradedServes++
	s.opts.Obs.Count("stream.degraded_serves", 1)
	s.opts.Obs.SetGauge("stream.stale_records", float64(s.sinceLastCheck))
	return s.viewLocked(true)
}

// breakerObsLocked publishes the breaker gauges. Caller holds s.mu.
func (s *Repartitioner) breakerObsLocked() {
	s.opts.Obs.SetGauge("stream.breaker_state", float64(s.brk.State()))
	s.opts.Obs.SetGauge("stream.consecutive_failures", float64(s.brk.Consecutive()))
	s.opts.Obs.SetGauge("stream.retry_backoff_ns", float64(s.brk.Backoff().Nanoseconds()))
}

// compatiblePartition reports whether the old partition's null structure
// still matches the grid (a previously empty cell that received records
// invalidates its null group).
func compatiblePartition(g *grid.Grid, p *core.Partition) bool {
	for _, cg := range p.Groups {
		for r := cg.RBeg; r <= cg.REnd; r++ {
			for c := cg.CBeg; c <= cg.CEnd; c++ {
				if g.Valid(r, c) == cg.Null {
					return false
				}
			}
		}
	}
	return true
}

// Stats returns the stream's counters.
func (s *Repartitioner) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Breaker = s.brk.State()
	st.BreakerOpens = s.brk.Opens()
	st.ConsecutiveFailures = s.brk.Consecutive()
	st.StaleRecords = s.sinceLastCheck
	st.HasView = s.current != nil
	st.Generation = s.generation
	st.WALSeq = s.walSeq
	if !s.lastCheckpoint.IsZero() {
		st.LastCheckpointAge = s.now().Sub(s.lastCheckpoint)
	}
	return st
}

// Grid returns a snapshot of the current aggregate grid.
//
//spatialvet:ignore deadexport (b) perfbench reads the aggregate grid through it
func (s *Repartitioner) Grid() *grid.Grid {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotGrid()
}

func modalVote(m map[float64]int) float64 {
	best, bestN := math.Inf(1), -1
	for v, n := range m {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Report is the stream's machine-readable run summary: geometry, serving
// state, counters, and — when an observer is attached — the full metrics
// snapshot (ingestion rates, refresh/recompute latencies, recompute phase
// timings).
type Report struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Attrs     int     `json:"attrs"`
	Threshold float64 `json:"threshold"`
	Workers   int     `json:"workers"`

	Generation int `json:"generation"`
	LagRecords int `json:"lag_records"` // records ingested since the last staleness check

	Accepted          int    `json:"accepted"`
	Dropped           int    `json:"dropped"`
	Recomputes        int    `json:"recomputes"`
	Refreshes         int    `json:"refreshes"`
	RecomputeFailures int    `json:"recompute_failures"`
	LastRecomputeErr  string `json:"last_recompute_err,omitempty"`

	DegradedServes      int    `json:"degraded_serves"`
	BreakerState        string `json:"breaker_state"`
	BreakerOpens        int    `json:"breaker_opens"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	StaleRecords        int    `json:"stale_records"`
	Checkpoints         int    `json:"checkpoints"`

	CheckpointFailures  int    `json:"checkpoint_failures"`
	LastCheckpointErr   string `json:"last_checkpoint_err,omitempty"`
	LastCheckpointAgeNS int64  `json:"last_checkpoint_age_ns,omitempty"`
	WALSeq              uint64 `json:"wal_seq,omitempty"`
	WALAppended         int    `json:"wal_appended,omitempty"`
	WALReplayed         int    `json:"wal_replayed,omitempty"`

	ServedGroups int     `json:"served_groups"`
	ServedIFL    float64 `json:"served_ifl"`

	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Phases summarizes the span histograms (stream.current, stream.refresh,
	// stream.recompute, rung.eval, …) with count/total/min/max and p50/p95/p99
	// bucket estimates — the same shape core.RunReport uses.
	Phases map[string]core.PhaseStat `json:"phases,omitempty"`
}

// Report summarizes the stream's current state.
func (s *Repartitioner) Report() Report {
	s.mu.Lock()
	r := Report{
		Rows:                s.rows,
		Cols:                s.cols,
		Attrs:               len(s.attrs),
		Threshold:           s.opts.Threshold,
		Workers:             s.opts.Workers,
		Generation:          s.generation,
		LagRecords:          s.sinceLastCheck,
		Accepted:            s.stats.Accepted,
		Dropped:             s.stats.Dropped,
		Recomputes:          s.stats.Recomputes,
		Refreshes:           s.stats.Refreshes,
		RecomputeFailures:   s.stats.RecomputeFailures,
		DegradedServes:      s.stats.DegradedServes,
		BreakerState:        s.brk.State().String(),
		BreakerOpens:        s.brk.Opens(),
		ConsecutiveFailures: s.brk.Consecutive(),
		StaleRecords:        s.sinceLastCheck,
		Checkpoints:         s.stats.Checkpoints,
		CheckpointFailures:  s.stats.CheckpointFailures,
		WALSeq:              s.walSeq,
		WALAppended:         s.stats.WALAppended,
		WALReplayed:         s.stats.WALReplayed,
	}
	if s.stats.LastRecomputeErr != nil {
		r.LastRecomputeErr = s.stats.LastRecomputeErr.Error()
	}
	if s.stats.LastCheckpointErr != nil {
		r.LastCheckpointErr = s.stats.LastCheckpointErr.Error()
	}
	if !s.lastCheckpoint.IsZero() {
		r.LastCheckpointAgeNS = s.now().Sub(s.lastCheckpoint).Nanoseconds()
	}
	if s.current != nil {
		r.ServedGroups = s.current.NumGroups()
		r.ServedIFL = s.current.IFL
	}
	s.mu.Unlock()
	if reg := s.opts.Obs.Registry(); reg != nil {
		snap := reg.Snapshot()
		r.Metrics = &snap
		r.Phases = core.PhaseStatsFrom(snap)
	}
	return r
}

// WriteReport writes the Report as indented JSON.
func (s *Repartitioner) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Report())
}
