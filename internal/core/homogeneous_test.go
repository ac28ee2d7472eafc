package core

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

func TestHomogeneousMergeRows(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2},
		{3, 4},
		{5, 6},
		{7, 8},
	})
	rp, err := Homogeneous(g, 2, MergeRows)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != 4 { // 2 row-blocks × 2 columns
		t.Fatalf("groups = %d, want 4", rp.NumGroups())
	}
	cg := rp.Partition.Groups[rp.Partition.GroupOf(0, 0)]
	if cg.RBeg != 0 || cg.REnd != 1 || cg.CBeg != 0 || cg.CEnd != 0 {
		t.Errorf("block = %+v", cg)
	}
	checkPartitionInvariantsHomogeneous(t, g, rp.Partition)
}

func TestHomogeneousMergeCols(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2, 3, 4},
	})
	rp, err := Homogeneous(g, 2, MergeCols)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", rp.NumGroups())
	}
}

func TestHomogeneousMergeBoth(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	rp, err := Homogeneous(g, 2, MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks: (0-1,0-1), (0-1,2), (2,0-1), (2,2) — edge blocks are smaller.
	if rp.NumGroups() != 4 {
		t.Fatalf("groups = %d, want 4", rp.NumGroups())
	}
	checkPartitionInvariantsHomogeneous(t, g, rp.Partition)
}

func TestHomogeneousBadFactor(t *testing.T) {
	g := uniGrid([][]float64{{1}})
	if _, err := Homogeneous(g, 0, MergeRows); err == nil {
		t.Error("want error for factor 0")
	}
	if _, err := Homogeneous(g, 2, MergeMode(9)); err == nil {
		t.Error("want error for unknown mode")
	}
}

func TestHomogeneousIFLHigherThanMLAware(t *testing.T) {
	// On a heterogeneous grid the blind 2x2 merge loses more information
	// than the ML-aware framework at a comparable (or larger) reduction —
	// the Table V phenomenon.
	g := randomUniGrid(21, 12, 12, 0)
	hom, err := Homogeneous(g, 2, MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Repartition(g, Options{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if hom.IFL <= ml.IFL {
		t.Errorf("homogeneous IFL %v should exceed ML-aware IFL %v on random data", hom.IFL, ml.IFL)
	}
}

func TestHomogeneousMixedNullBlock(t *testing.T) {
	nan := math.NaN()
	g := uniGrid([][]float64{
		{10, nan},
		{10, nan},
	})
	rp, err := Homogeneous(g, 2, MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", rp.NumGroups())
	}
	if rp.Partition.Groups[0].Null {
		t.Error("block with valid cells must not be null")
	}
	// Only valid cells contribute: average of {10,10} = 10, IFL 0.
	if rp.Features[0][0] != 10 || rp.IFL != 0 {
		t.Errorf("feat = %v IFL = %v", rp.Features[0][0], rp.IFL)
	}
}

func TestHomogeneousAllNullBlock(t *testing.T) {
	g := grid.New(2, 2, uniAttrs())
	rp, err := Homogeneous(g, 2, MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Partition.Groups[0].Null || rp.Features[0] != nil {
		t.Error("all-null block must be a null group with nil features")
	}
}

func TestHomogeneousBest(t *testing.T) {
	// Constant grid: every merge factor has IFL 0, so the §III-D search
	// (raise the factor while IFL stays within θ) runs to the coarsest.
	g := grid.New(8, 8, uniAttrs())
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			g.Set(r, c, 0, 5)
		}
	}
	for k := 2; k <= 8; k++ {
		rp, err := Homogeneous(g, k, MergeBoth)
		if err != nil {
			t.Fatal(err)
		}
		if rp.IFL > 0.05 {
			t.Errorf("k = %d: IFL = %v, want within θ = 0.05", k, rp.IFL)
		}
		if k == 8 && rp.NumGroups() != 1 {
			t.Errorf("k = 8: groups = %d, want 1", rp.NumGroups())
		}
	}
}

func TestHomogeneousBestFailsWhenOvershooting(t *testing.T) {
	// Wildly heterogeneous checkerboard: even factor 2 overshoots θ = 0.01.
	g := grid.New(6, 6, uniAttrs())
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			v := 1.0
			if (r+c)%2 == 0 {
				v = 100
			}
			g.Set(r, c, 0, v)
		}
	}
	rp, err := Homogeneous(g, 2, MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL <= 0.01 {
		t.Errorf("IFL at the smallest factor = %v, want > θ = 0.01", rp.IFL)
	}
}

func TestMergeModeString(t *testing.T) {
	if MergeRows.String() != "rows" || MergeCols.String() != "cols" || MergeBoth.String() != "rows+cols" {
		t.Error("MergeMode.String mismatch")
	}
	if MergeMode(7).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

// checkPartitionInvariantsHomogeneous is like checkPartitionInvariants but
// allows blocks mixing null and valid cells (Null means all-null).
func checkPartitionInvariantsHomogeneous(t *testing.T, g *grid.Grid, p *Partition) {
	t.Helper()
	seen := make([]bool, g.NumCells())
	total := 0
	for gi, cg := range p.Groups {
		total += cg.Size()
		anyValid := false
		for r := cg.RBeg; r <= cg.REnd; r++ {
			for c := cg.CBeg; c <= cg.CEnd; c++ {
				idx := r*g.Cols + c
				if seen[idx] {
					t.Fatalf("cell (%d,%d) covered twice", r, c)
				}
				seen[idx] = true
				if p.GroupOf(r, c) != gi {
					t.Fatalf("index mismatch at (%d,%d)", r, c)
				}
				if g.Valid(r, c) {
					anyValid = true
				}
			}
		}
		if cg.Null == anyValid {
			t.Fatalf("group %d null flag %v but anyValid %v", gi, cg.Null, anyValid)
		}
	}
	if total != g.NumCells() {
		t.Fatalf("blocks cover %d cells, want %d", total, g.NumCells())
	}
}
