package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialrepart/internal/grid"
)

// bruteForceGroupAdjacency derives group adjacency straight from cell-level
// 4-adjacency, as ground truth for Algorithm 3.
func bruteForceGroupAdjacency(p *Partition) []map[int]bool {
	adj := make([]map[int]bool, len(p.Groups))
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			g1 := p.GroupOf(r, c)
			if c+1 < p.Cols {
				if g2 := p.GroupOf(r, c+1); g2 != g1 {
					adj[g1][g2] = true
					adj[g2][g1] = true
				}
			}
			if r+1 < p.Rows {
				if g2 := p.GroupOf(r+1, c); g2 != g1 {
					adj[g1][g2] = true
					adj[g2][g1] = true
				}
			}
		}
	}
	return adj
}

func TestAdjacencyListMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomUniGrid(seed, 6, 6, 0.1)
		n, _ := g.Normalized()
		rng := rand.New(rand.NewSource(seed))
		p := Extract(n, rng.Float64()*0.3)
		got := p.AdjacencyList()
		want := bruteForceGroupAdjacency(p)
		for gi, list := range got {
			if len(list) != len(want[gi]) {
				return false
			}
			seen := map[int]bool{}
			for _, id := range list {
				if id == gi || seen[id] || !want[gi][id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAdjacencyListSymmetric(t *testing.T) {
	g := randomUniGrid(3, 8, 8, 0)
	n, _ := g.Normalized()
	p := Extract(n, 0.1)
	adj := p.AdjacencyList()
	for gi, list := range adj {
		for _, gj := range list {
			found := false
			for _, back := range adj[gj] {
				if back == gi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d but not back", gi, gj)
			}
		}
	}
}

// TestAdjacencyFig3Shape checks the paper's Fig. 3 style claim on a concrete
// layout: a 2x3 group in the top-left of a 3x4 grid with singleton groups
// around it touches exactly the groups along its right edge and bottom edge.
func TestAdjacencyFig3Shape(t *testing.T) {
	// Groups: 0 = rows 0-1 cols 0-2; then singletons for the remaining cells.
	p := &Partition{Rows: 3, Cols: 4, CellToGroup: make([]int, 12)}
	p.Groups = append(p.Groups, CellGroup{RBeg: 0, REnd: 1, CBeg: 0, CEnd: 2})
	for r := 0; r <= 1; r++ {
		for c := 0; c <= 2; c++ {
			p.CellToGroup[r*4+c] = 0
		}
	}
	next := 1
	for _, rc := range [][2]int{{0, 3}, {1, 3}, {2, 0}, {2, 1}, {2, 2}, {2, 3}} {
		p.Groups = append(p.Groups, CellGroup{RBeg: rc[0], REnd: rc[0], CBeg: rc[1], CEnd: rc[1]})
		p.CellToGroup[rc[0]*4+rc[1]] = next
		next++
	}
	adj := p.AdjacencyList()
	// Group 0 borders (0,3)=1, (1,3)=2, (2,0)=3, (2,1)=4, (2,2)=5.
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if len(adj[0]) != len(want) {
		t.Fatalf("group 0 neighbors = %v, want %v", adj[0], want)
	}
	for _, id := range adj[0] {
		if !want[id] {
			t.Errorf("unexpected neighbor %d", id)
		}
	}
	// The far corner singleton (2,3)=6 must NOT border group 0.
	for _, id := range adj[0] {
		if id == 6 {
			t.Error("corner-diagonal group must not be adjacent (rook contiguity)")
		}
	}
}

// TestCellAdjacency checks the raw grid's cell adjacency, the identity
// partition's Algorithm 3 list: rook contiguity, cell ids row-major.
func TestCellAdjacency(t *testing.T) {
	adj := Identity(grid.New(2, 3, uniAttrs())).AdjacencyList()
	if len(adj) != 6 {
		t.Fatalf("len = %d, want 6", len(adj))
	}
	// Corner (0,0) has 2 neighbors; center-top (0,1) has 3.
	if len(adj[0]) != 2 {
		t.Errorf("corner neighbors = %v", adj[0])
	}
	if len(adj[1]) != 3 {
		t.Errorf("edge neighbors = %v", adj[1])
	}
	// Symmetry.
	for i, list := range adj {
		for _, j := range list {
			found := false
			for _, back := range adj[j] {
				if back == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell adjacency not symmetric: %d -> %d", i, j)
			}
		}
	}
}
