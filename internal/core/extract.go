package core

import "spatialrepart/internal/grid"

// CellGroup is a rectangular group of adjacent cells (paper §II). The bounds
// are inclusive: the group spans rows [RBeg, REnd] and columns [CBeg, CEnd].
// Null reports whether the group consists of null (empty) cells.
type CellGroup struct {
	RBeg, REnd int
	CBeg, CEnd int
	Null       bool
}

// Size returns the number of cells in the group.
func (cg CellGroup) Size() int { return (cg.REnd - cg.RBeg + 1) * (cg.CEnd - cg.CBeg + 1) }

// Contains reports whether cell (r, c) lies inside the group's rectangle.
func (cg CellGroup) Contains(r, c int) bool {
	return r >= cg.RBeg && r <= cg.REnd && c >= cg.CBeg && c <= cg.CEnd
}

// Partition maps a grid onto a set of rectangular cell-groups. It carries
// both directions of Algorithm 1's output: Groups is the paper's gIndex
// (group → rectangle bounds) and CellToGroup is cIndex (cell → group id).
type Partition struct {
	Rows, Cols  int
	Groups      []CellGroup
	CellToGroup []int // len Rows*Cols, indexed by r*Cols+c
}

// GroupOf returns the group id of cell (r, c).
func (p *Partition) GroupOf(r, c int) int { return p.CellToGroup[r*p.Cols+c] }

// NumGroups returns the number of cell-groups.
func (p *Partition) NumGroups() int { return len(p.Groups) }

// Identity returns the trivial partition in which every cell of g is its own
// cell-group. It is the starting point of the re-partitioning loop (IFL 0).
func Identity(g *grid.Grid) *Partition {
	p := &Partition{
		Rows:        g.Rows,
		Cols:        g.Cols,
		Groups:      make([]CellGroup, 0, g.NumCells()),
		CellToGroup: make([]int, g.NumCells()),
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			p.CellToGroup[r*g.Cols+c] = len(p.Groups)
			p.Groups = append(p.Groups, CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c, Null: !g.Valid(r, c)})
		}
	}
	return p
}

// Extract implements Algorithm 1: it scans the attribute-normalized grid
// row-major from the top-left corner and greedily grows, from each unvisited
// cell, the largest of (a) the vertical run, (b) the horizontal run, and
// (c) the maximal-area rectangle in which every pair of adjacent cells has
// variation ≤ minAdjVariation. Null cells group only with adjacent null
// cells. Every cell ends up in exactly one rectangular cell-group.
//
//spatialvet:ignore deadexport (a) reference oracle: the varfield tests compare ExtractField against this plain Algorithm 1
func Extract(norm *grid.Grid, minAdjVariation float64) *Partition {
	rows, cols := norm.Rows, norm.Cols
	visited := make([]bool, rows*cols)
	p := &Partition{
		Rows:        rows,
		Cols:        cols,
		CellToGroup: make([]int, rows*cols),
	}

	// vRun returns the number of consecutive unvisited cells downward from
	// (r, c) — including (r, c) — such that each vertically adjacent pair has
	// variation ≤ minAdjVariation.
	vRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for r+n < rows && !visited[(r+n)*cols+c] &&
			cellVariation(norm, r+n-1, c, r+n, c) <= minAdjVariation {
			n++
		}
		return n
	}
	hRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for c+n < cols && !visited[r*cols+c+n] &&
			cellVariation(norm, r, c+n-1, r, c+n) <= minAdjVariation {
			n++
		}
		return n
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if visited[r*cols+c] {
				continue
			}
			vCount := vRun(r, c)
			hCount := hRun(r, c)

			// Grow the best rectangle from (r, c): width w sweeps rightward
			// along the horizontal run; the feasible height shrinks
			// monotonically as columns are added because every vertical pair
			// within each column and every horizontal pair between adjacent
			// columns must stay within minAdjVariation.
			bestW, bestH, bestArea := 1, vCount, vCount
			h := vCount
			for w := 2; w <= hCount && h > 1; w++ {
				col := c + w - 1
				if vr := vRun(r, col); vr < h {
					h = vr
				}
				for t := 1; t < h; t++ { // row r pairs already vetted by hRun
					if cellVariation(norm, r+t, col-1, r+t, col) > minAdjVariation {
						h = t
						break
					}
				}
				if h <= 1 {
					break
				}
				if area := w * h; area > bestArea {
					bestW, bestH, bestArea = w, h, area
				}
			}

			var cg CellGroup
			switch {
			case bestArea >= hCount && bestArea >= vCount:
				cg = CellGroup{RBeg: r, REnd: r + bestH - 1, CBeg: c, CEnd: c + bestW - 1}
			case hCount >= vCount:
				cg = CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c + hCount - 1}
			default:
				cg = CellGroup{RBeg: r, REnd: r + vCount - 1, CBeg: c, CEnd: c}
			}
			cg.Null = !norm.Valid(r, c)

			id := len(p.Groups)
			for rr := cg.RBeg; rr <= cg.REnd; rr++ {
				for cc := cg.CBeg; cc <= cg.CEnd; cc++ {
					visited[rr*cols+cc] = true
					p.CellToGroup[rr*cols+cc] = id
				}
			}
			p.Groups = append(p.Groups, cg)
		}
	}
	return p
}
