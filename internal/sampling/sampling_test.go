package sampling

import (
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

func TestReduceBudgetRespected(t *testing.T) {
	d := datagen.TaxiTripsUni(1, 12, 12)
	for _, budget := range []int{5, 20, 60} {
		red, err := Reduce(d.Grid, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(red.Groups) != budget {
			t.Errorf("groups = %d, want %d", len(red.Groups), budget)
		}
		// Every valid cell is assigned; null cells are not.
		for idx, gi := range red.Assign {
			r, c := d.Grid.CellAt(idx)
			if d.Grid.Valid(r, c) != (gi >= 0) {
				t.Fatalf("assignment/validity mismatch at cell %d", idx)
			}
		}
	}
}

func TestReduceErrors(t *testing.T) {
	d := datagen.TaxiTripsUni(2, 6, 6)
	if _, err := Reduce(d.Grid, 0); err == nil {
		t.Error("want budget error")
	}
	if _, err := Reduce(d.Grid, d.Grid.NumCells()+1); err == nil {
		t.Error("want over-budget error")
	}
}

func TestSamplesAreSpatiallySpread(t *testing.T) {
	// With a uniform grid, greedy weighted farthest-point sampling should
	// spread samples out: the minimum pairwise sample distance must exceed
	// what clumping all samples in one corner would give.
	g := grid.New(10, 10, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			g.Set(r, c, 0, float64(r*10+c)) // mild gradient
		}
	}
	red, err := Reduce(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cells [][2]int
	for i, members := range red.Groups {
		_ = members
		// Find the sample cell of group i: the one whose vector equals the
		// group feature.
		for _, idx := range red.Groups[i] {
			r, c := g.CellAt(idx)
			if g.At(r, c, 0) == red.Features[i][0] {
				cells = append(cells, [2]int{r, c})
				break
			}
		}
	}
	if len(cells) != 4 {
		t.Fatalf("recovered %d sample cells", len(cells))
	}
	minD2 := 1 << 30
	for i := 0; i < len(cells); i++ {
		for j := i + 1; j < len(cells); j++ {
			dr, dc := cells[i][0]-cells[j][0], cells[i][1]-cells[j][1]
			if d := dr*dr + dc*dc; d < minD2 {
				minD2 = d
			}
		}
	}
	if minD2 < 9 {
		t.Errorf("min pairwise sample distance² = %d, want ≥ 9 (spread out)", minD2)
	}
}

func TestReduceDeterministic(t *testing.T) {
	d := datagen.VehiclesUni(3, 10, 10)
	a, err := Reduce(d.Grid, 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reduce(d.Grid, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestReduceIFLGrowsAsBudgetShrinks(t *testing.T) {
	d := datagen.EarningsUni(4, 12, 12)
	big, err := Reduce(d.Grid, 80)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Reduce(d.Grid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if small.IFL <= big.IFL {
		t.Errorf("IFL should grow as the budget shrinks: %v (8) vs %v (80)", small.IFL, big.IFL)
	}
}
