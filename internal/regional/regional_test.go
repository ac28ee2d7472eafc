package regional

import (
	"math"
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

func TestReduceRegionCount(t *testing.T) {
	d := datagen.TaxiTripsUni(1, 12, 12)
	red, err := Reduce(d.Grid, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Groups) < 20 {
		t.Errorf("regions = %d, want ≥ 20", len(red.Groups))
	}
	// Regions should not wildly exceed the target (only extra components add).
	if len(red.Groups) > 30 {
		t.Errorf("regions = %d, want close to 20", len(red.Groups))
	}
}

func TestReduceRegionsContiguous(t *testing.T) {
	d := datagen.VehiclesUni(2, 12, 12)
	red, err := Reduce(d.Grid, 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for gi, members := range red.Groups {
		if !connected(d.Grid, members) {
			t.Fatalf("region %d not contiguous (size %d)", gi, len(members))
		}
	}
}

func TestReduceCoversAllValidCells(t *testing.T) {
	d := datagen.EarningsUni(3, 10, 10)
	red, err := Reduce(d.Grid, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for idx, a := range red.Assign {
		r, c := d.Grid.CellAt(idx)
		if d.Grid.Valid(r, c) != (a >= 0) {
			t.Fatalf("assignment/validity mismatch at %d", idx)
		}
	}
}

func TestReduceErrors(t *testing.T) {
	d := datagen.TaxiTripsUni(4, 6, 6)
	if _, err := Reduce(d.Grid, 0, Options{}); err == nil {
		t.Error("want region-count error")
	}
	if _, err := Reduce(d.Grid, d.Grid.NumCells()+1, Options{}); err == nil {
		t.Error("want too-many-regions error")
	}
	empty := grid.New(3, 3, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	if _, err := Reduce(empty, 2, Options{}); err == nil {
		t.Error("want no-valid-cells error")
	}
}

func TestReduceDisconnectedComponents(t *testing.T) {
	// Two valid islands separated by nulls: even t=1 needs 2 regions.
	nan := math.NaN()
	g := grid.New(1, 5, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	vals := []float64{1, 1, nan, 9, 9}
	for c, v := range vals {
		if !math.IsNaN(v) {
			g.Set(0, c, 0, v)
		}
	}
	red, err := Reduce(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Groups) != 2 {
		t.Errorf("groups = %d, want 2 (one per component)", len(red.Groups))
	}
}

func TestRefinementReducesOrKeepsIFL(t *testing.T) {
	d := datagen.HomeSales(5, 12, 12)
	noRefine, err := Reduce(d.Grid, 25, Options{RefinePasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Reduce(d.Grid, 25, Options{RefinePasses: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Refinement optimizes centroid dissimilarity, which correlates with
	// IFL; allow slack but catch gross regressions.
	if refined.IFL > noRefine.IFL*1.25+0.01 {
		t.Errorf("refined IFL %v much worse than unrefined %v", refined.IFL, noRefine.IFL)
	}
}

func TestReduceDeterministic(t *testing.T) {
	d := datagen.TaxiTripsUni(6, 10, 10)
	a, err := Reduce(d.Grid, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reduce(d.Grid, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("regionalization not deterministic")
		}
	}
}

func connected(g *grid.Grid, members []int) bool {
	if len(members) == 0 {
		return false
	}
	inSet := map[int]bool{}
	for _, idx := range members {
		inSet[idx] = true
	}
	seen := map[int]bool{members[0]: true}
	queue := []int{members[0]}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		r, c := g.CellAt(idx)
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= g.Rows || nc < 0 || nc >= g.Cols {
				continue
			}
			nidx := nr*g.Cols + nc
			if inSet[nidx] && !seen[nidx] {
				seen[nidx] = true
				queue = append(queue, nidx)
			}
		}
	}
	return len(seen) == len(members)
}
