// Package render draws spatial grids and partitions as ASCII art — a
// debugging and teaching aid for inspecting what the re-partitioning
// framework did to a dataset without leaving the terminal.
package render

import (
	"fmt"
	"math"
	"strings"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
)

// shades orders the fill characters from low to high attribute value.
var shades = []rune{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Grid renders one attribute of a grid as a shade map: low values are
// light, high values dark, null cells are '·'.
func Grid(g *grid.Grid, attr int) string {
	if attr < 0 || attr >= g.NumAttrs() {
		return fmt.Sprintf("render: attribute %d out of range", attr)
	}
	ranges := g.Ranges()
	lo, hi := ranges[attr].Min, ranges[attr].Max
	span := hi - lo
	var sb strings.Builder
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				sb.WriteRune('·')
				continue
			}
			v := 0.0
			if span > 0 {
				v = (g.At(r, c, attr) - lo) / span
			}
			idx := int(math.Floor(v * float64(len(shades)-1)))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteRune(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PartitionBorders renders a partition as box-drawing borders around the
// rectangular cell-groups: every cell is two characters wide and group
// boundaries are marked, making the merge structure visible at a glance.
func PartitionBorders(p *core.Partition) string {
	var sb strings.Builder
	// Top border.
	sb.WriteByte('+')
	for c := 0; c < p.Cols; c++ {
		sb.WriteString("--+")
	}
	sb.WriteByte('\n')
	for r := 0; r < p.Rows; r++ {
		// Cell row: vertical borders where the group changes.
		sb.WriteByte('|')
		for c := 0; c < p.Cols; c++ {
			fill := "  "
			if p.Groups[p.GroupOf(r, c)].Null {
				fill = "··"
			}
			sb.WriteString(fill)
			if c+1 < p.Cols && p.GroupOf(r, c) == p.GroupOf(r, c+1) {
				sb.WriteByte(' ')
			} else {
				sb.WriteByte('|')
			}
		}
		sb.WriteByte('\n')
		// Bottom border of the row: horizontal borders where the group changes.
		sb.WriteByte('+')
		for c := 0; c < p.Cols; c++ {
			if r+1 < p.Rows && p.GroupOf(r, c) == p.GroupOf(r+1, c) {
				sb.WriteString("  ")
			} else {
				sb.WriteString("--")
			}
			sb.WriteByte('+')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
