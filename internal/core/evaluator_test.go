package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

// edgeCaseGrid is a random grid with sum, average, integer-average and
// categorical attributes, drawn from few distinct values so groups merge and
// modes tie. Integer-average cells hold non-integer values, numeric cells
// include -0.0 and 0, about a sixth of the cells are null, and when withInf
// is set one numeric cell holds ±Inf.
func edgeCaseGrid(rng *rand.Rand, withInf bool) *grid.Grid {
	attrs := []grid.Attribute{
		{Name: "sum", Agg: grid.Sum},
		{Name: "avg", Agg: grid.Average},
		{Name: "intavg", Agg: grid.Average, Integer: true},
		{Name: "cat", Agg: grid.Average, Categorical: true},
	}
	rows, cols := 3+rng.Intn(12), 3+rng.Intn(12)
	g := grid.New(rows, cols, attrs)
	numeric := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		default:
			return float64(rng.Intn(4)) * 0.5
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(6) == 0 {
				continue // null cell
			}
			g.SetVector(r, c, []float64{
				numeric(),
				numeric(),
				float64(rng.Intn(3)) + []float64{0.1, 0.3, 0.5, 0.7}[rng.Intn(4)],
				float64(rng.Intn(3)),
			})
		}
	}
	if withInf {
		r, c := rng.Intn(rows), rng.Intn(cols)
		g.Set(r, c, rng.Intn(3), math.Inf(1-2*rng.Intn(2)))
	}
	return g
}

// sameFeatureBits reports whether two feature sets match bit for bit: nil
// vectors in the same places and equal float64 bit patterns, so -0 differs
// from 0 and NaN matches an identical NaN.
func sameFeatureBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}

// newTestEvaluator builds the evaluator Repartition would build for g.
func newTestEvaluator(g *grid.Grid, workers int) (*rungEvaluator, *VariationLadder) {
	norm, _ := g.Normalized()
	field := BuildField(norm)
	return newRungEvaluator(g, field, AllocateFeatures(g, Identity(g)), workers), field.Ladder()
}

// TestRungEvaluatorMatchesAllocateAndIFL: the rung evaluator reuses the
// identity partition's features and loss terms for single-cell groups; its
// partition, features and loss must equal ExtractField, AllocateFeatures and
// IFL bit for bit on every edge case the reuse could disturb, including
// singleton-heavy low rungs, with rungs evaluated concurrently against one
// shared evaluator.
func TestRungEvaluatorMatchesAllocateAndIFL(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		g := edgeCaseGrid(rng, trial%3 == 0)
		for _, workers := range []int{1, 4} {
			ev, ladder := newTestEvaluator(g, workers)
			if ladder.Len() == 0 {
				continue
			}
			rungs := []int{0, ladder.Len() - 1}
			if ladder.Len() > 1 {
				rungs = append(rungs, 1)
			}
			for i := 0; i < 4; i++ {
				rungs = append(rungs, rng.Intn(ladder.Len()))
			}
			eval := func(i int) rungResult {
				part, feats, loss := ev.eval(nil, ladder.Rung(i))
				return rungResult{rung: i, part: part, feats: feats, loss: loss}
			}
			for _, rr := range evalRungs(eval, rungs, workers) {
				theta := ladder.Rung(rr.rung)
				if want := ExtractField(ev.field, theta); !reflect.DeepEqual(rr.part, want) {
					t.Fatalf("trial %d workers %d rung %d: partition differs from ExtractField", trial, workers, rr.rung)
				}
				want := AllocateFeatures(g, rr.part)
				if !sameFeatureBits(rr.feats, want) {
					t.Fatalf("trial %d workers %d rung %d: features differ from AllocateFeatures", trial, workers, rr.rung)
				}
				if got, want := rr.loss, IFL(g, rr.part, want); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d workers %d rung %d: loss %v, IFL %v", trial, workers, rr.rung, got, want)
				}
			}
		}
	}
}

// TestRungEvalAllocsConstant: one rung evaluation allocates the same small
// number of objects whatever the grid size or group count. The collector is
// off while measuring: a GC cycle makes a few allocations of its own, which
// AllocsPerRun would otherwise charge to whichever run it lands in.
func TestRungEvalAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(side int) float64 {
		ev, ladder := newTestEvaluator(datagen.TaxiTripsMulti(1, side, side).Grid, 1)
		theta := ladder.Rung(ladder.Len() / 4)
		return testing.AllocsPerRun(3, func() { ev.eval(nil, theta) })
	}
	small, large := allocs(64), allocs(256)
	if small != large || small > 8 {
		t.Fatalf("allocations per rung evaluation: %v at 64², %v at 256²; want equal and ≤ 8", small, large)
	}
}
