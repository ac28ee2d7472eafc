package core

// This file holds the parallel variants of the re-partitioning hot paths
// (DESIGN.md §3.11). Everything here is deterministic: the sharding
// granularity never depends on the worker count, so any Workers value —
// including 1 — produces the same bytes. Workers only controls how many
// shards run at once.

import (
	"runtime"
	"sync"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// resolveWorkers maps the Options.Workers convention (0 = all cores) to a
// concrete goroutine count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// parallelRanges splits [0, n) into `shards` contiguous ranges and runs fn
// on up to `workers` of them concurrently.
func parallelRanges(n, shards, workers int, fn func(shard, lo, hi int)) {
	if shards > n {
		shards = n
	}
	if shards <= 1 || workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s*chunk < n; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
			<-sem
		}(s, lo, hi)
	}
	wg.Wait()
}

// BuildFieldParallel is BuildField with the row sweep sharded across up to
// `workers` goroutines (0 = GOMAXPROCS). Every field entry is computed
// independently, so the result is bit-identical to BuildField for any worker
// count.
func BuildFieldParallel(norm *grid.Grid, workers int) *VariationField {
	workers = resolveWorkers(workers)
	f := newField(norm)
	parallelRanges(norm.Rows, workers, workers, func(_, lo, hi int) {
		f.fillRows(norm, lo, hi)
	})
	return f
}

// AllocateFeaturesParallel is Algorithm 2 with the group loop sharded across
// up to `workers` goroutines (0 = GOMAXPROCS). Each group's feature vector
// depends only on that group's cells, so the output is bit-identical to
// AllocateFeatures for any worker count.
func AllocateFeaturesParallel(orig *grid.Grid, part *Partition, workers int) [][]float64 {
	workers = resolveWorkers(workers)
	n := len(part.Groups)
	if workers == 1 || n < 2*minParallelGroups {
		return AllocateFeatures(orig, part)
	}
	feats := make([][]float64, n)
	parallelRanges(n, workers, workers, func(_, lo, hi int) {
		allocateRange(orig, part, feats, lo, hi, false, nil)
	})
	return feats
}

// minParallelGroups is the group count below which AllocateFeaturesParallel
// falls back to the sequential pass (goroutine overhead dominates).
const minParallelGroups = 64

// iflBlockRows is the fixed row height of one IFLParallel shard. It is a
// constant rather than a function of the worker count so that the partial
// sums are always taken over the same cell blocks and combined in the same
// order — making IFLParallel's result identical for every Workers value.
const iflBlockRows = 16

// IFLParallel computes Eq. 3 with the cell sweep sharded into fixed
// iflBlockRows-row blocks evaluated by up to `workers` goroutines
// (0 = GOMAXPROCS). The result is deterministic and independent of the
// worker count; it may differ from the sequential IFL in the last float64
// bits because the per-block partial sums are combined block-by-block
// instead of in one long accumulation.
func IFLParallel(orig *grid.Grid, part *Partition, feats [][]float64, workers int) float64 {
	workers = resolveWorkers(workers)
	p := orig.NumAttrs()
	blocks := (orig.Rows + iflBlockRows - 1) / iflBlockRows
	if workers == 1 || blocks <= 1 {
		return IFL(orig, part, feats)
	}
	spans := attrSpans(orig)
	type partial struct {
		sum   float64
		valid int
	}
	parts := make([]partial, blocks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for b := 0; b < blocks; b++ {
		r0 := b * iflBlockRows
		r1 := r0 + iflBlockRows
		if r1 > orig.Rows {
			r1 = orig.Rows
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(b, r0, r1 int) {
			defer wg.Done()
			s, v := iflRows(orig, part, feats, spans, nil, r0, r1)
			parts[b] = partial{sum: s, valid: v}
			<-sem
		}(b, r0, r1)
	}
	wg.Wait()
	var sum float64
	valid := 0
	for _, pt := range parts { // combine in block order: deterministic
		sum += pt.sum
		valid += pt.valid
	}
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}

// rungResult is one evaluated ladder rung: the partition it extracts, the
// features it allocates, and whether its information loss passes the
// threshold. canceled marks a placeholder produced after the run's context
// was canceled: the evaluation was skipped, nothing in the result is valid,
// and the driver converts it into an ErrCanceled return instead of ever
// promoting it.
type rungResult struct {
	rung     int
	part     *Partition
	feats    [][]float64
	loss     float64
	ok       bool
	canceled bool
}

// evalRungs evaluates the given ladder rungs concurrently on up to `workers`
// goroutines. eval must be pure; results come back positionally.
func evalRungs(eval func(int) rungResult, rungs []int, workers int) []rungResult {
	out := make([]rungResult, len(rungs))
	if len(rungs) == 1 || workers <= 1 {
		for i, rg := range rungs {
			out[i] = eval(rg)
		}
		return out
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, rg := range rungs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, rg int) {
			defer wg.Done()
			out[i] = eval(rg)
			<-sem
		}(i, rg)
	}
	wg.Wait()
	return out
}

// evalRungsObs is evalRungs plus batch-level observation: it times each
// speculative batch (span "parallel.batch") and counts batches and the rungs
// they carry. Individual rung evaluations are timed inside eval itself, so
// batch wall time vs summed rung time exposes worker utilization.
func evalRungsObs(o *obs.Observer, eval func(int) rungResult, rungs []int, workers int) []rungResult {
	if o == nil {
		return evalRungs(eval, rungs, workers)
	}
	sp := o.StartSpan("parallel.batch")
	out := evalRungs(eval, rungs, workers)
	sp.End()
	o.Count("parallel.batches", 1)
	o.Count("parallel.batch_rungs", int64(len(rungs)))
	return out
}

// speculativeMids returns up to `budget` rung indices that a sequential
// binary search over [lo, hi] could visit next, in BFS order of the search's
// decision tree. Evaluating all of them concurrently lets the caller replay
// several sequential bisection steps from one batch, whatever the pass/fail
// outcomes turn out to be.
func speculativeMids(lo, hi, budget int) []int {
	type span struct{ lo, hi int }
	mids := make([]int, 0, budget)
	queue := []span{{lo, hi}}
	for len(queue) > 0 && len(mids) < budget {
		s := queue[0]
		queue = queue[1:]
		if s.lo > s.hi {
			continue
		}
		m := (s.lo + s.hi) / 2
		mids = append(mids, m)
		queue = append(queue, span{s.lo, m - 1}, span{m + 1, s.hi})
	}
	return mids
}
