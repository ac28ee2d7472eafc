package cluster

import (
	"fmt"
	"sort"
)

// Fragment is one shard's contribution to a global cell-group, in GLOBAL grid
// coordinates (all ends inclusive, matching core.CellGroup). The Parent
// extent is the global identity of the group the fragment belongs to: for a
// group contained entirely inside one band the fragment IS its own parent;
// for a group spanning a band border each shard contributes the slice it
// owns, all pointing at the same parent extent. The parent's top-left corner
// (ParentRowBegin, ParentColBegin) is the global group key — grid rectangles
// have unique top-left corners, so the key needs no coordination between
// shards.
type Fragment struct {
	Shard int

	RowBegin, RowEnd int
	ColBegin, ColEnd int

	ParentRowBegin, ParentRowEnd int
	ParentColBegin, ParentColEnd int

	Null       bool
	Features   []float64
	Generation int
}

// rows returns the number of rows the fragment covers.
func (f Fragment) rows() int { return f.RowEnd - f.RowBegin + 1 }

// cells returns the number of cells the fragment covers.
func (f Fragment) cells() int { return f.rows() * (f.ColEnd - f.ColBegin + 1) }

// StitchedGroup is one reassembled global cell-group.
type StitchedGroup struct {
	RowBegin, RowEnd int
	ColBegin, ColEnd int
	Null             bool
	Features         []float64
	Generation       int
	Shards           []int // contributing shards, ascending
}

// Cells returns the number of cells in the stitched group.
func (g StitchedGroup) Cells() int {
	return (g.RowEnd - g.RowBegin + 1) * (g.ColEnd - g.ColBegin + 1)
}

// DroppedGroup records a parent group the stitcher refused to assemble, and
// why. Dropping is always preferred over guessing: a stitched view never
// contains a group whose fragments disagreed (e.g. two generations of the
// same group) or only partially arrived.
type DroppedGroup struct {
	RowBegin int    `json:"row_begin"` // parent extent
	RowEnd   int    `json:"row_end"`
	ColBegin int    `json:"col_begin"`
	ColEnd   int    `json:"col_end"`
	Reason   string `json:"reason"`
	Shards   []int  `json:"shards"` // shards that contributed fragments
}

// StitchResult is the outcome of one Stitch call.
type StitchResult struct {
	Groups  []StitchedGroup
	Dropped []DroppedGroup
}

// Stitch reassembles global cell-groups from shard fragments. Fragments are
// grouped by their parent key (ParentRowBegin, ParentColBegin); each parent
// is accepted only when every fragment agrees on the full parent extent,
// null-ness, feature vector, and generation, and the fragments tile the
// parent's rows exactly (full parent column span, contiguous, no overlap, no
// gap). Anything else is dropped with a reason, never merged on a guess — in
// particular two shards serving different generations of a border-spanning
// group can never be mixed into one stitched group.
//
// Accepted groups come back sorted by (RowBegin, ColBegin). Because
// core.Extract discovers groups in row-major scan order — i.e. sorted by
// top-left corner — this ordering reproduces the unsharded view's group IDs
// exactly, which is what makes the stitched view byte-comparable to the
// single-process one.
func Stitch(rows, cols int, frags []Fragment) StitchResult {
	type key struct{ r, c int }
	byParent := make(map[key][]Fragment)
	order := make([]key, 0, len(frags))
	for _, f := range frags {
		k := key{f.ParentRowBegin, f.ParentColBegin}
		if _, seen := byParent[k]; !seen {
			order = append(order, k)
		}
		byParent[k] = append(byParent[k], f)
	}

	var res StitchResult
	for _, k := range order {
		group := byParent[k]
		sort.Slice(group, func(i, j int) bool { return group[i].RowBegin < group[j].RowBegin })
		first := group[0]
		shards := shardSet(group)
		drop := func(reason string) {
			res.Dropped = append(res.Dropped, DroppedGroup{
				RowBegin: first.ParentRowBegin, RowEnd: first.ParentRowEnd,
				ColBegin: first.ParentColBegin, ColEnd: first.ParentColEnd,
				Reason: reason, Shards: shards,
			})
		}
		if reason := validateParent(rows, cols, group); reason != "" {
			drop(reason)
			continue
		}
		res.Groups = append(res.Groups, StitchedGroup{
			RowBegin: first.ParentRowBegin, RowEnd: first.ParentRowEnd,
			ColBegin: first.ParentColBegin, ColEnd: first.ParentColEnd,
			Null:       first.Null,
			Features:   copyFloats(first.Features),
			Generation: first.Generation,
			Shards:     shards,
		})
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		a, b := res.Groups[i], res.Groups[j]
		if a.RowBegin != b.RowBegin {
			return a.RowBegin < b.RowBegin
		}
		return a.ColBegin < b.ColBegin
	})
	sort.Slice(res.Dropped, func(i, j int) bool {
		a, b := res.Dropped[i], res.Dropped[j]
		if a.RowBegin != b.RowBegin {
			return a.RowBegin < b.RowBegin
		}
		return a.ColBegin < b.ColBegin
	})
	return res
}

// validateParent checks one parent's fragments (sorted by RowBegin) and
// returns the drop reason, or "" when the parent stitches cleanly.
func validateParent(rows, cols int, group []Fragment) string {
	first := group[0]
	if first.ParentRowBegin < 0 || first.ParentRowEnd >= rows ||
		first.ParentColBegin < 0 || first.ParentColEnd >= cols ||
		first.ParentRowBegin > first.ParentRowEnd || first.ParentColBegin > first.ParentColEnd {
		return fmt.Sprintf("parent extent outside the %dx%d grid", rows, cols)
	}
	for _, f := range group[1:] {
		if f.ParentRowEnd != first.ParentRowEnd || f.ParentColEnd != first.ParentColEnd {
			return "parent-extent mismatch across fragments"
		}
		if f.Generation != first.Generation {
			return "generation mix across fragments"
		}
		if f.Null != first.Null {
			return "null-flag mismatch across fragments"
		}
		if !floatsEqual(f.Features, first.Features) {
			return "feature mismatch across fragments"
		}
	}
	prevEnd := first.ParentRowBegin - 1
	for _, f := range group {
		if f.ColBegin != first.ParentColBegin || f.ColEnd != first.ParentColEnd {
			return "fragment does not span the parent's columns"
		}
		if f.RowBegin < first.ParentRowBegin || f.RowEnd > first.ParentRowEnd || f.RowBegin > f.RowEnd {
			return "fragment outside the parent's rows"
		}
		if f.RowBegin <= prevEnd {
			return "overlapping fragments"
		}
		if f.RowBegin != prevEnd+1 {
			return "missing fragment (row gap)"
		}
		prevEnd = f.RowEnd
	}
	if prevEnd != first.ParentRowEnd {
		return "missing fragment (parent tail)"
	}
	return ""
}

// SplitGroups is the inverse of Stitch for a given plan: each group is cut at
// the plan's band borders into per-shard fragments that all carry the group's
// extent as their parent. Stitch(SplitGroups(plan, groups)) reproduces groups
// exactly — the round-trip identity the property tests pin down.
//
//spatialvet:ignore deadexport (a) reference oracle: the stitch round-trip property tests invert Stitch with it
func SplitGroups(p Plan, groups []StitchedGroup) []Fragment {
	var out []Fragment
	for _, g := range groups {
		for _, b := range p.Bands {
			r0, r1 := max(g.RowBegin, b.Row0), min(g.RowEnd, b.Row1-1)
			if r0 > r1 {
				continue
			}
			out = append(out, Fragment{
				Shard:    b.Index,
				RowBegin: r0, RowEnd: r1,
				ColBegin: g.ColBegin, ColEnd: g.ColEnd,
				ParentRowBegin: g.RowBegin, ParentRowEnd: g.RowEnd,
				ParentColBegin: g.ColBegin, ParentColEnd: g.ColEnd,
				Null:       g.Null,
				Features:   copyFloats(g.Features),
				Generation: g.Generation,
			})
		}
	}
	return out
}

// shardSet returns the ascending, de-duplicated shard indices of a fragment
// group.
func shardSet(group []Fragment) []int {
	seen := make(map[int]bool, len(group))
	out := make([]int, 0, len(group))
	for _, f := range group {
		if !seen[f.Shard] {
			seen[f.Shard] = true
			out = append(out, f.Shard)
		}
	}
	sort.Ints(out)
	return out
}

// floatsEqual reports bitwise equality of two feature vectors. Exact
// comparison is deliberate: fragments of one group carry literal copies of
// the same shard-computed vector, so any difference at all means the
// fragments came from different computations and must not be merged.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func copyFloats(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}
