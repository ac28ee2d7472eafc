package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuadtreeUniformGridOneGroup(t *testing.T) {
	g := uniGrid([][]float64{
		{5, 5, 5, 5},
		{5, 5, 5, 5},
		{5, 5, 5, 5},
		{5, 5, 5, 5},
	})
	n, _ := g.Normalized()
	p := QuadtreeExtract(n, 0)
	if p.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", p.NumGroups())
	}
	checkPartitionInvariants(t, g, p)
}

func TestQuadtreeSplitsAtBoundary(t *testing.T) {
	// Left half 1s, right half 9s on a 4x4 grid: the quadtree splits into
	// the four quadrants (each internally uniform).
	g := uniGrid([][]float64{
		{1, 1, 9, 9},
		{1, 1, 9, 9},
		{1, 1, 9, 9},
		{1, 1, 9, 9},
	})
	n, _ := g.Normalized()
	p := QuadtreeExtract(n, 0)
	checkPartitionInvariants(t, g, p)
	if p.NumGroups() != 4 {
		t.Fatalf("groups = %d, want 4 quadrants", p.NumGroups())
	}
}

func TestQuadtreeRespectsAdjacentPairBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(7), 1+rng.Intn(7)
		vals := make([][]float64, rows)
		for r := range vals {
			vals[r] = make([]float64, cols)
			for c := range vals[r] {
				if rng.Float64() < 0.1 {
					vals[r][c] = math.NaN()
				} else {
					vals[r][c] = float64(rng.Intn(10))
				}
			}
		}
		g := uniGrid(vals)
		n, _ := g.Normalized()
		minVar := rng.Float64() * 0.5
		p := QuadtreeExtract(n, minVar)
		// Tiling invariant.
		total := 0
		for _, cg := range p.Groups {
			total += cg.Size()
		}
		if total != g.NumCells() {
			return false
		}
		// Bound invariant: adjacent pairs inside a group respect minVar.
		for _, cg := range p.Groups {
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					if c+1 <= cg.CEnd && cellVariation(n, r, c, r, c+1) > minVar {
						return false
					}
					if r+1 <= cg.REnd && cellVariation(n, r, c, r+1, c) > minVar {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuadtreeVsGreedyGroupCount: at the same variation bound, the paper's
// similarity-guided growing should rarely need more groups than blind
// axis-aligned halving — that is the point of the ablation.
func TestQuadtreeVsGreedyGroupCount(t *testing.T) {
	g := randomUniGrid(31, 16, 16, 0.05)
	n, _ := g.Normalized()
	ladder := BuildField(n).Ladder()
	if ladder.Len() == 0 {
		t.Skip("degenerate grid")
	}
	minVar := ladder.Rung(ladder.Len() / 2)
	greedy := Extract(n, minVar)
	quad := QuadtreeExtract(n, minVar)
	if greedy.NumGroups() > quad.NumGroups() {
		t.Errorf("greedy %d groups vs quadtree %d — growing should win", greedy.NumGroups(), quad.NumGroups())
	}
}

func TestQuadtreeSingleRowAndColumn(t *testing.T) {
	row := uniGrid([][]float64{{1, 9, 1, 9, 1}})
	n, _ := row.Normalized()
	p := QuadtreeExtract(n, 0)
	checkPartitionInvariants(t, row, p)
	if p.NumGroups() != 5 {
		t.Errorf("alternating row groups = %d, want 5", p.NumGroups())
	}
	col := uniGrid([][]float64{{1}, {1}, {9}})
	nc, _ := col.Normalized()
	pc := QuadtreeExtract(nc, 0)
	checkPartitionInvariants(t, col, pc)
}

func TestQuadtreeNullHomogeneity(t *testing.T) {
	nan := math.NaN()
	g := uniGrid([][]float64{
		{1, nan},
		{1, nan},
	})
	n, _ := g.Normalized()
	p := QuadtreeExtract(n, 1)
	checkPartitionInvariants(t, g, p) // verifies null flags match validity
	for _, cg := range p.Groups {
		if cg.Null && cg.CBeg == 0 {
			t.Fatal("valid column marked null")
		}
	}
}
