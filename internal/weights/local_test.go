package weights

import (
	"math"
	"testing"
)

// lattice builds rook (4-neighbor) or, with queen, 8-neighbor contiguity
// weights over a rows×cols grid, cells numbered row-major.
func lattice(rows, cols int, queen bool) *W {
	neighbors := make([][]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					nr, nc := r+dr, c+dc
					if (dr == 0 && dc == 0) || (!queen && dr != 0 && dc != 0) || nr < 0 || nr >= rows || nc < 0 || nc >= cols {
						continue
					}
					neighbors[r*cols+c] = append(neighbors[r*cols+c], nr*cols+nc)
				}
			}
		}
	}
	return New(neighbors)
}

func TestLocalMoransIDetectsClusters(t *testing.T) {
	// An 8x8 grid with a hot 3x3 block in the corner: cells inside the block
	// (and deep in the cold region) get positive LISA; boundary cells between
	// regimes get negative or small values.
	w := lattice(8, 8, false)
	x := make([]float64, 64)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			x[r*8+c] = 100
		}
	}
	lisa, err := w.LocalMoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	if lisa[0] <= 0 { // corner of the hot block: high-high
		t.Errorf("hot-block LISA = %v, want positive", lisa[0])
	}
	if lisa[7*8+7] <= 0 { // far cold corner: low-low
		t.Errorf("cold-corner LISA = %v, want positive", lisa[63])
	}
	// A hot cell adjacent to the cold region: its lag mixes, LISA lower than
	// the interior hot cell.
	if lisa[2*8+2] >= lisa[0] {
		t.Errorf("boundary LISA %v should be below interior %v", lisa[2*8+2], lisa[0])
	}
}

func TestLocalMoransIErrors(t *testing.T) {
	w := lattice(2, 2, false)
	if _, err := w.LocalMoransI([]float64{1}); err == nil {
		t.Error("want length error")
	}
	if _, err := w.LocalMoransI([]float64{3, 3, 3, 3}); err == nil {
		t.Error("want constant error")
	}
}

func TestLocalMoransIAveragesToGlobal(t *testing.T) {
	// Mean of local Moran values tracks global Moran's I (the LISA
	// decomposition). The identity is exact only when both use the same
	// weight normalization; our local statistic row-standardizes while the
	// global Eq. 4 uses binary weights, so boundary-degree effects leave a
	// modest gap on small lattices.
	w := lattice(6, 6, false)
	x := make([]float64, 36)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			x[r*6+c] = float64(r*r + c)
		}
	}
	lisa, err := w.LocalMoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	global, err := w.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range lisa {
		mean += v
	}
	mean /= float64(len(lisa))
	if math.Abs(mean-global) > 0.15 {
		t.Errorf("mean LISA %v vs global %v", mean, global)
	}
	if (mean > 0) != (global > 0) {
		t.Errorf("mean LISA %v and global %v disagree in sign", mean, global)
	}
}

func TestGetisOrdGStarHotCold(t *testing.T) {
	w := lattice(8, 8, false)
	x := make([]float64, 64)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			x[r*8+c] = 100
		}
	}
	g, err := w.GetisOrdGStar(x)
	if err != nil {
		t.Fatal(err)
	}
	if g[1*8+1] < 1 { // interior of the hot block
		t.Errorf("hot-spot G* = %v, want strongly positive", g[9])
	}
	if g[7*8+7] > 0 { // cold corner
		t.Errorf("cold-spot G* = %v, want negative", g[63])
	}
}

func TestGetisOrdGStarErrors(t *testing.T) {
	w := lattice(2, 2, false)
	if _, err := w.GetisOrdGStar([]float64{1}); err == nil {
		t.Error("want length error")
	}
	if _, err := w.GetisOrdGStar([]float64{5, 5, 5, 5}); err == nil {
		t.Error("want constant error")
	}
}

func TestQueenVsRookNeighborCounts(t *testing.T) {
	q := lattice(3, 3, true)
	r := lattice(3, 3, false)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Center cell: 8 queen neighbors, 4 rook neighbors.
	if len(q.Neighbors[4]) != 8 {
		t.Errorf("queen center = %d neighbors, want 8", len(q.Neighbors[4]))
	}
	if len(r.Neighbors[4]) != 4 {
		t.Errorf("rook center = %d neighbors, want 4", len(r.Neighbors[4]))
	}
	// Corner: 3 vs 2.
	if len(q.Neighbors[0]) != 3 || len(r.Neighbors[0]) != 2 {
		t.Errorf("corner neighbors queen=%d rook=%d, want 3/2", len(q.Neighbors[0]), len(r.Neighbors[0]))
	}
}

func TestQueenMoranStrongerOnDiagonalPattern(t *testing.T) {
	// A diagonal-striped pattern is autocorrelated under queen (diagonal
	// neighbors share values) but anti-correlated under rook.
	q := lattice(8, 8, true)
	r := lattice(8, 8, false)
	x := make([]float64, 64)
	for rr := 0; rr < 8; rr++ {
		for cc := 0; cc < 8; cc++ {
			if (rr+cc)%2 == 0 {
				x[rr*8+cc] = 1
			}
		}
	}
	qi, err := q.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := r.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	if qi <= ri {
		t.Errorf("queen I %v should exceed rook I %v on a checkerboard", qi, ri)
	}
}
