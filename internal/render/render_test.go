package render

import (
	"math"
	"strings"
	"testing"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
)

func testGrid() *grid.Grid {
	g := grid.New(2, 3, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 0)
	g.Set(0, 1, 0, 50)
	g.Set(0, 2, 0, 100)
	g.Set(1, 0, 0, 100)
	g.Set(1, 2, 0, 0)
	// (1,1) stays null.
	return g
}

func TestGridShadeMap(t *testing.T) {
	out := Grid(testGrid(), 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	row0 := []rune(lines[0])
	if len(row0) != 3 {
		t.Fatalf("row width = %d, want 3", len(row0))
	}
	if row0[0] != ' ' {
		t.Errorf("min value shade = %q, want space", row0[0])
	}
	if row0[2] != '@' {
		t.Errorf("max value shade = %q, want @", row0[2])
	}
	if []rune(lines[1])[1] != '·' {
		t.Errorf("null cell = %q, want ·", []rune(lines[1])[1])
	}
}

func TestGridBadAttr(t *testing.T) {
	if !strings.Contains(Grid(testGrid(), 5), "out of range") {
		t.Error("want error message for bad attribute")
	}
}

func TestGridConstantAttribute(t *testing.T) {
	g := grid.New(1, 2, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 7)
	g.Set(0, 1, 0, 7)
	out := Grid(g, 0)
	if strings.ContainsAny(out, "@#") {
		t.Errorf("constant grid should render light: %q", out)
	}
}

// TestPartitionLetters checks that a partition renders one cell row per
// grid row and marks the null group.
func TestPartitionLetters(t *testing.T) {
	g := testGrid()
	n, _ := g.Normalized()
	p := core.Extract(n, 1)
	out := PartitionBorders(p)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2*2+1 {
		t.Fatalf("lines = %d, want 5 (a cell row and a border per grid row, plus the top border)", len(lines))
	}
	if !strings.Contains(lines[3], "··") {
		t.Error("null group should render as ··")
	}
}

func TestPartitionBordersStructure(t *testing.T) {
	// One 1x2 group plus a singleton on a 1x3 grid.
	p := &core.Partition{
		Rows: 1, Cols: 3,
		Groups: []core.CellGroup{
			{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1},
			{RBeg: 0, REnd: 0, CBeg: 2, CEnd: 2},
		},
		CellToGroup: []int{0, 0, 1},
	}
	out := PartitionBorders(p)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (border, cells, border)", len(lines))
	}
	// The merged pair has no divider between columns 0 and 1, but there is
	// one before column 2.
	cells := lines[1]
	if cells != "|     |  |" {
		t.Errorf("cell row = %q", cells)
	}
}

func TestRenderLargePartitionDoesNotPanic(t *testing.T) {
	g := grid.New(20, 20, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			g.Set(r, c, 0, math.Sin(float64(r))*10+float64(c))
		}
	}
	n, _ := g.Normalized()
	p := core.Extract(n, 0.1)
	if out := PartitionBorders(p); len(out) == 0 {
		t.Error("empty border render")
	}
	if out := Grid(g, 0); len(out) == 0 {
		t.Error("empty grid render")
	}
}
