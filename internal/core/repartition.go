package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// Schedule selects how many rungs of the variation ladder the driver climbs
// per iteration (DESIGN.md §3.2).
type Schedule int

const (
	// ScheduleExact pops one distinct min-adjacent variation per iteration,
	// exactly as §III-A1 describes. Converges in O(#distinct variations)
	// iterations, each re-extracting the whole grid.
	ScheduleExact Schedule = iota
	// ScheduleGeometric doubles the climb per iteration and, once the IFL
	// threshold is exceeded, bisects back to the largest rung whose IFL still
	// satisfies the threshold. O(log #variations) iterations; returns the
	// same partition as ScheduleExact whenever IFL is monotone in the rung,
	// which it is in practice.
	ScheduleGeometric
)

// Options configures Repartition.
type Options struct {
	// Threshold is the user-specified information-loss bound θ ∈ [0, 1].
	Threshold float64
	// Schedule picks the iteration schedule; default ScheduleExact.
	Schedule Schedule
	// MaxIterations caps the number of extract/allocate/loss iterations.
	// 0 means unlimited. A finite cap forces the sequential path so the
	// budget cuts off the search at exactly the evaluation the paper's
	// loop would have reached.
	MaxIterations int
	// Workers bounds the goroutines used for the variation-field build and
	// for speculative rung evaluation. 0 means runtime.GOMAXPROCS(0);
	// 1 forces the sequential path. The returned Partition, Features, and
	// IFL are byte-identical for every value.
	Workers int
	// Obs, when non-nil, receives metrics and per-phase span timings from
	// the run (DESIGN.md §3.14). Instrumentation only reads values the
	// search already computed, so attaching an observer never changes the
	// returned dataset; when nil, every hook is a single predictable branch.
	Obs *obs.Observer
	// Ctx, when non-nil, cancels the run: the driver checks it before every
	// rung evaluation and between speculative batches, and returns an error
	// wrapping ErrCanceled (and the context's own error) within at most one
	// in-flight rung of the cancellation. Nil means the run is never
	// canceled. An un-canceled context never changes the returned dataset —
	// the checkpoints are read-only branches.
	Ctx context.Context
}

// Repartitioned is the output of the framework: the re-partitioned dataset
// d̄ of §III — a set of rectangular cell-groups with allocated feature
// vectors, plus the bookkeeping needed to train ML models (adjacency) and to
// map predictions back to input cells.
type Repartitioned struct {
	Source    *grid.Grid  // the original input grid (not copied)
	Partition *Partition  // group rectangles and the cell→group index
	Features  [][]float64 // per-group feature vectors; nil for null groups
	IFL       float64     // information loss of this partition vs. Source

	// ValidCells, when non-nil, holds the number of VALID source cells in
	// each cell-group. Constructors whose rectangles may mix null and valid
	// cells (Homogeneous) must set it; when nil, every cell of a non-null
	// group is valid — the ML-aware invariant — and counts fall back to
	// CellGroup.Size().
	ValidCells []int

	Iterations      int     // extract/allocate/loss iterations performed
	MinAdjVariation float64 // the accepted min-adjacent variation
}

// GroupValidCells returns the number of valid source cells in group gi.
func (rp *Repartitioned) GroupValidCells(gi int) int {
	if rp.ValidCells != nil {
		return rp.ValidCells[gi]
	}
	cg := rp.Partition.Groups[gi]
	if cg.Null {
		return 0
	}
	return cg.Size()
}

// NumGroups returns the number of cell-groups (null groups included).
func (rp *Repartitioned) NumGroups() int { return len(rp.Partition.Groups) }

// ValidGroups returns the number of non-null cell-groups, i.e. the number of
// training instances the re-partitioned dataset yields.
func (rp *Repartitioned) ValidGroups() int {
	n := 0
	for _, cg := range rp.Partition.Groups {
		if !cg.Null {
			n++
		}
	}
	return n
}

// ErrThreshold is returned when Options.Threshold is outside [0, 1].
var ErrThreshold = errors.New("core: information-loss threshold must lie in [0, 1]")

// ErrCanceled is wrapped into the error returned when a run's context is
// canceled or its deadline expires; the context's error (context.Canceled or
// context.DeadlineExceeded) is wrapped alongside, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) hold.
var ErrCanceled = errors.New("core: repartition canceled")

// canceledErr wraps a canceled context's error in ErrCanceled.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
}

// RepartitionCtx is Repartition with cancellation: the search observes ctx at
// cheap checkpoints (before each rung evaluation and between speculative
// batches) and abandons the run with an error wrapping ErrCanceled within at
// most one in-flight rung. Everything else — determinism across worker
// counts included — is identical to Repartition.
// ctx must be non-nil, as throughout the standard library's context
// conventions; pass context.Background() explicitly (or use Repartition)
// when no cancellation is wanted.
func RepartitionCtx(ctx context.Context, g *grid.Grid, opts Options) (*Repartitioned, error) {
	opts.Ctx = ctx
	return repartition(g, opts, nil)
}

// Repartition runs the full framework of §III-A: it normalizes the input,
// pre-computes the adjacent-pair variation field (and from it the
// min-adjacent-variation ladder) once, and then iterates extract → allocate
// → information-loss, climbing the ladder until the next step would push IFL
// beyond the threshold. The returned dataset is the coarsest one whose
// IFL ≤ θ (the identity partition, with IFL 0, if even the first merge
// overshoots).
//
// With Options.Workers > 1 the ladder climb evaluates speculative rung
// batches concurrently; each rung evaluation is pure given the field, and
// passing rungs are promoted in the exact order the sequential loop would
// have visited them, so the result — including Iterations, which counts only
// the evaluations the sequential loop would have performed — is
// byte-identical to the Workers = 1 path.
func Repartition(g *grid.Grid, opts Options) (*Repartitioned, error) {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	return repartition(g, opts, nil)
}

// repartition is the shared driver behind Repartition and
// RepartitionWithReport. rec, when non-nil, collects the data a RunReport
// needs (and guarantees an active observer so per-phase timings exist).
// Every observation reads values the search computed anyway, so the result
// is byte-identical whether o and rec are nil or not.
func repartition(g *grid.Grid, opts Options, rec *runRecorder) (*Repartitioned, error) {
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrThreshold, opts.Threshold)
	}
	if err := grid.ValidateAttrs(g.Attrs); err != nil {
		return nil, err
	}
	// opts.Ctx is non-nil on every path: Repartition and
	// RepartitionWithReport default it, RepartitionCtx requires it. Keeping
	// the context.Background() default out of this shared driver keeps the
	// handler-reachable path (RepartitionCtx) from ever minting a root
	// context that would detach a request from its deadline and trace.
	ctx := opts.Ctx
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	o := opts.Obs
	if rec != nil {
		if o == nil {
			o = obs.New()
		}
		rec.obs = o
		rec.start = time.Now()
	}
	workers := resolveWorkers(opts.Workers)
	if opts.MaxIterations > 0 {
		workers = 1 // a finite budget replays the sequential cut-off exactly
	}
	o.Count("repart.runs", 1)
	o.SetGauge("repart.workers", float64(workers))

	// The run root span adopts any trace context the caller placed in ctx
	// (e.g. the server's request span), so a traced /view request yields one
	// connected tree down to the per-rung evaluations. With a nil observer
	// both calls are single branches and ctx is returned unchanged.
	ctx, spRun := o.StartSpanCtx(ctx, "repart.run", "schedule", scheduleName(opts.Schedule))
	defer spRun.End()

	norm, _ := g.Normalized()
	_, sp := o.StartSpanCtx(ctx, "varfield.build")
	field := BuildFieldParallel(norm, workers)
	sp.End()
	ladder := field.Ladder()
	o.SetGauge("repart.ladder_rungs", float64(ladder.Len()))
	if rec != nil {
		rec.field = field.Stats()
		rec.rungs = ladder.Len()
		rec.workers = workers
	}

	best := &Repartitioned{
		Source:          g,
		Partition:       Identity(g),
		MinAdjVariation: -1,
	}
	best.Features = AllocateFeatures(g, best.Partition)
	ev := newRungEvaluator(g, field, best.Features, workers)

	iterBudget := opts.MaxIterations
	if iterBudget <= 0 {
		iterBudget = int(^uint(0) >> 1)
	}
	iters := 0

	// eval evaluates one ladder rung: pure given the field, so rungs can be
	// evaluated speculatively and concurrently. A canceled context short-
	// circuits the evaluation — the run is about to return an error, so the
	// placeholder result is never promoted.
	eval := func(i int) rungResult {
		if ctx.Err() != nil {
			return rungResult{rung: i, canceled: true}
		}
		// rung.eval joins the request trace; its sub-phases (rung.extract,
		// rung.allocate, rung.loss) stay histogram-only so the flight
		// recorder holds one event per rung, not four.
		_, spe := o.StartSpanCtx(ctx, "rung.eval")
		part, feats, loss := ev.eval(o, ladder.Rung(i))
		spe.End()
		ok := loss <= opts.Threshold
		o.Count("rung.evaluated", 1)
		rec.record(i, ladder.Rung(i), loss, len(part.Groups), ok)
		return rungResult{rung: i, part: part, feats: feats, loss: loss, ok: ok}
	}
	// promote installs a passing rung as the new best. Callers invoke it in
	// ascending sequential-visit order, so the final best is the same rung
	// the sequential loop accepts.
	promote := func(rr rungResult) {
		o.Count("rung.promoted", 1)
		best = &Repartitioned{
			Source:          g,
			Partition:       rr.part,
			Features:        rr.feats,
			IFL:             rr.loss,
			MinAdjVariation: ladder.Rung(rr.rung),
		}
	}

	switch opts.Schedule {
	case ScheduleExact:
		if workers > 1 {
			var err error
			iters, err = exactParallel(ctx, o, eval, promote, ladder.Len(), workers)
			if err != nil {
				return nil, err
			}
		} else {
			for i := 0; i < ladder.Len() && iters < iterBudget; i++ {
				iters++
				rr := eval(i)
				if rr.canceled {
					return nil, canceledErr(ctx)
				}
				if !rr.ok {
					break
				}
				promote(rr)
			}
		}
	case ScheduleGeometric:
		if workers > 1 {
			var err error
			iters, err = geometricParallel(ctx, o, eval, promote, ladder.Len(), workers)
			if err != nil {
				return nil, err
			}
		} else {
			// Exponential search for the frontier, then bisection.
			lastGood, firstBad := -1, ladder.Len()
			for step := 1; lastGood+step < ladder.Len() && iters < iterBudget; step *= 2 {
				i := lastGood + step
				iters++
				o.Count("geometric.probes", 1)
				rr := eval(i)
				if rr.canceled {
					return nil, canceledErr(ctx)
				}
				if rr.ok {
					promote(rr)
					lastGood = i
				} else {
					firstBad = i
					break
				}
			}
			for lo, hi := lastGood+1, firstBad-1; lo <= hi && iters < iterBudget; {
				mid := (lo + hi) / 2
				iters++
				o.Count("geometric.bisections", 1)
				rr := eval(mid)
				if rr.canceled {
					return nil, canceledErr(ctx)
				}
				if rr.ok {
					promote(rr)
					lo = mid + 1
				} else {
					hi = mid - 1
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown schedule %d", opts.Schedule)
	}

	best.Iterations = iters
	o.SetGauge("repart.last_ifl", best.IFL)
	o.SetGauge("repart.last_groups", float64(len(best.Partition.Groups)))
	return best, nil
}

// rungEvaluator runs Algorithms 1–3 for the rungs of one Repartition call.
// It holds the work that does not depend on the rung, done once per call:
// the identity partition's features, each valid cell's Eq. 3 terms under
// them, and the attribute spans. A single-cell group's features and loss
// terms are the identity's, so each rung recomputes only its multi-cell
// groups (DESIGN.md §3.10). Everything but the scratch free list is
// read-only, so concurrent speculative rungs share one evaluator.
type rungEvaluator struct {
	g     *grid.Grid
	field *VariationField
	ident [][]float64 // identity features, indexed by cell
	spans []float64
	terms []float64 // identityTerms(g, ident, spans)
	// free holds idle extraction scratch. Its capacity is the worker count,
	// the most evaluations in flight at once. It is a channel rather than a
	// sync.Pool so the scratch is never dropped and the allocation count of
	// an evaluation stays fixed.
	free chan *extractScratch
}

func newRungEvaluator(g *grid.Grid, field *VariationField, identFeats [][]float64, workers int) *rungEvaluator {
	spans := attrSpans(g)
	return &rungEvaluator{
		g:     g,
		field: field,
		ident: identFeats,
		spans: spans,
		terms: identityTerms(g, identFeats, spans),
		free:  make(chan *extractScratch, workers),
	}
}

// eval extracts, allocates and scores the partition at one min-adjacent
// variation, timing each step (spans rung.extract, rung.allocate, rung.loss).
// The result is exactly ExtractField, AllocateFeatures and IFL's. Its
// allocations are a constant few, whatever the grid size.
func (e *rungEvaluator) eval(o *obs.Observer, minAdjVariation float64) (*Partition, [][]float64, float64) {
	var s *extractScratch
	select {
	case s = <-e.free:
	default:
		s = newExtractScratch(e.field.Rows * e.field.Cols)
	}
	sp := o.StartSpan("rung.extract")
	part := e.field.extract(minAdjVariation, s)
	sp.End()
	select {
	case e.free <- s:
	default:
	}
	o.Count("extract.calls", 1)
	o.Count("extract.groups", int64(len(part.Groups)))

	sp = o.StartSpan("rung.allocate")
	feats := make([][]float64, len(part.Groups))
	allocateRange(e.g, part, feats, 0, len(feats), false, e.ident)
	sp.End()
	o.Count("allocate.calls", 1)

	sp = o.StartSpan("rung.loss")
	loss := ifl(e.g, part, feats, e.spans, e.terms)
	sp.End()
	o.Count("loss.evaluations", 1)
	return part, feats, loss
}

// exactParallel climbs the ladder rung by rung like the sequential
// ScheduleExact loop, evaluating speculative batches of `workers` rungs at a
// time. Results are scanned in rung order, so promotion order, the stopping
// rung, and the returned iteration count all match the sequential loop;
// batch entries past the first failure are discarded speculation. Context
// cancellation is observed between batches and inside each evaluation, so the
// climb aborts within one in-flight batch.
func exactParallel(ctx context.Context, o *obs.Observer, eval func(int) rungResult, promote func(rungResult), n, workers int) (int, error) {
	iters := 0
	for start := 0; start < n; start += workers {
		if ctx.Err() != nil {
			return iters, canceledErr(ctx)
		}
		end := start + workers
		if end > n {
			end = n
		}
		rungs := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			rungs = append(rungs, i)
		}
		results := evalRungsObs(o, eval, rungs, workers)
		for scanned, rr := range results {
			if rr.canceled {
				return iters, canceledErr(ctx)
			}
			iters++
			if !rr.ok {
				o.Count("parallel.speculative_waste", int64(len(results)-scanned-1))
				return iters, nil
			}
			promote(rr)
		}
	}
	return iters, nil
}

// geometricParallel mirrors the sequential ScheduleGeometric search with
// speculative batches. The exponential probe sequence is predetermined while
// probes keep passing, so whole batches of probes run concurrently; the
// bisection phase evaluates the next few levels of the binary-search
// decision tree per batch (speculativeMids) and then replays the sequential
// walk against the collected results. Promotions happen in the sequential
// visit order, so the outcome is byte-identical to Workers = 1. Context
// cancellation is observed between batches and inside each evaluation.
func geometricParallel(ctx context.Context, o *obs.Observer, eval func(int) rungResult, promote func(rungResult), n, workers int) (int, error) {
	iters := 0
	var probes []int
	for lg, step := -1, 1; lg+step < n; step *= 2 {
		probes = append(probes, lg+step)
		lg += step
	}
	lastGood, firstBad := -1, n
	failed := false
	for start := 0; start < len(probes) && !failed; start += workers {
		if ctx.Err() != nil {
			return iters, canceledErr(ctx)
		}
		end := start + workers
		if end > len(probes) {
			end = len(probes)
		}
		for _, rr := range evalRungsObs(o, eval, probes[start:end], workers) {
			if rr.canceled {
				return iters, canceledErr(ctx)
			}
			iters++
			o.Count("geometric.probes", 1)
			if rr.ok {
				promote(rr)
				lastGood = rr.rung
			} else {
				firstBad = rr.rung
				failed = true
				break
			}
		}
	}
	for lo, hi := lastGood+1, firstBad-1; lo <= hi; {
		if ctx.Err() != nil {
			return iters, canceledErr(ctx)
		}
		mids := speculativeMids(lo, hi, workers)
		res := make(map[int]rungResult, len(mids))
		for _, rr := range evalRungsObs(o, eval, mids, workers) {
			if rr.canceled {
				return iters, canceledErr(ctx)
			}
			res[rr.rung] = rr
		}
		consumed := 0
		for lo <= hi {
			mid := (lo + hi) / 2
			rr, have := res[mid]
			if !have {
				break // narrowed past this batch's speculation: refill
			}
			consumed++
			iters++
			o.Count("geometric.bisections", 1)
			if rr.ok {
				promote(rr)
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		o.Count("parallel.speculative_waste", int64(len(mids)-consumed))
	}
	return iters, nil
}
