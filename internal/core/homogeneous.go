package core

import (
	"fmt"

	"spatialrepart/internal/grid"
)

// MergeMode selects which axes the homogeneous (naïve) re-partitioning
// variant of §III-D merges.
type MergeMode int

const (
	// MergeRows merges k adjacent rows into one.
	MergeRows MergeMode = iota
	// MergeCols merges k adjacent columns into one.
	MergeCols
	// MergeBoth merges k adjacent rows and k adjacent columns.
	MergeBoth
)

// String implements fmt.Stringer.
func (m MergeMode) String() string {
	switch m {
	case MergeRows:
		return "rows"
	case MergeCols:
		return "cols"
	case MergeBoth:
		return "rows+cols"
	}
	return fmt.Sprintf("MergeMode(%d)", int(m))
}

// Homogeneous builds the homogeneous re-partitioning of §III-D at factor k:
// the grid is tiled with fixed-size blocks of k rows and/or k columns
// regardless of attribute similarity (edge blocks may be smaller). Unlike
// the ML-aware framework it mixes null and non-null cells inside a block;
// a block counts as null only when all its cells are null, and feature
// allocation skips null cells inside mixed blocks.
func Homogeneous(g *grid.Grid, k int, mode MergeMode) (*Repartitioned, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: homogeneous merge factor must be ≥ 1, got %d", k)
	}
	kr, kc := 1, 1
	switch mode {
	case MergeRows:
		kr = k
	case MergeCols:
		kc = k
	case MergeBoth:
		kr, kc = k, k
	default:
		return nil, fmt.Errorf("core: unknown merge mode %d", mode)
	}
	part := &Partition{
		Rows:        g.Rows,
		Cols:        g.Cols,
		CellToGroup: make([]int, g.NumCells()),
	}
	var validCells []int
	for rb := 0; rb < g.Rows; rb += kr {
		re := min(rb+kr-1, g.Rows-1)
		for cb := 0; cb < g.Cols; cb += kc {
			ce := min(cb+kc-1, g.Cols-1)
			cg := CellGroup{RBeg: rb, REnd: re, CBeg: cb, CEnd: ce}
			id := len(part.Groups)
			nValid := 0
			for r := rb; r <= re; r++ {
				for c := cb; c <= ce; c++ {
					part.CellToGroup[r*g.Cols+c] = id
					if g.Valid(r, c) {
						nValid++
					}
				}
			}
			cg.Null = nValid == 0
			part.Groups = append(part.Groups, cg)
			validCells = append(validCells, nValid)
		}
	}
	feats := allocateHomogeneous(g, part)
	return &Repartitioned{
		Source:     g,
		Partition:  part,
		Features:   feats,
		IFL:        iflValidOnly(g, part, feats, validCells),
		ValidCells: validCells,
	}, nil
}

// allocateHomogeneous is Algorithm 2 adapted to blocks that may mix null and
// non-null cells: only the valid cells contribute to the block's features.
func allocateHomogeneous(g *grid.Grid, part *Partition) [][]float64 {
	p := g.NumAttrs()
	feats := make([][]float64, len(part.Groups))
	vals := make([]float64, 0, 64)
	for gi, cg := range part.Groups {
		if cg.Null {
			continue
		}
		fv := make([]float64, p)
		for k := 0; k < p; k++ {
			vals = vals[:0]
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					if g.Valid(r, c) {
						vals = append(vals, g.At(r, c, k))
					}
				}
			}
			fv[k] = allocateAttr(g.Attrs[k], vals)
		}
		feats[gi] = fv
	}
	return feats
}

// iflValidOnly is Eq. 3 with the representative of a sum-aggregated block
// divided by the count of VALID cells in the block (mixed blocks would
// otherwise smear mass onto null cells that contribute nothing). The caller
// supplies the per-group valid-cell counts it already tracked —
// Repartitioned.ValidCells, the same counts ReconstructGrid and
// DistributeToCells use for the §III-C mapping.
func iflValidOnly(g *grid.Grid, part *Partition, feats [][]float64, validInGroup []int) float64 {
	p := g.NumAttrs()
	spans := attrSpans(g)
	var sum float64
	valid := 0
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			valid++
			gi := part.GroupOf(r, c)
			for k := 0; k < p; k++ {
				rep := feats[gi][k]
				if g.Attrs[k].Agg == grid.Sum {
					rep /= float64(validInGroup[gi])
				}
				sum += IFLTermAttr(g.Attrs[k], g.At(r, c, k), rep, spans[k])
			}
		}
	}
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}
