package reduce

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

func uniGrid(vals [][]float64, agg grid.AggType) *grid.Grid {
	g := grid.New(len(vals), len(vals[0]), []grid.Attribute{{Name: "v", Agg: agg}})
	for r, row := range vals {
		for c, v := range row {
			if !math.IsNaN(v) {
				g.Set(r, c, 0, v)
			}
		}
	}
	return g
}

func bounds() grid.Bounds { return grid.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1} }

func TestFromMembershipBasics(t *testing.T) {
	g := uniGrid([][]float64{
		{10, 10},
		{20, 20},
	}, grid.Average)
	red, err := FromMembership(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(red.Groups))
	}
	if red.Features[0][0] != 10 || red.Features[1][0] != 20 {
		t.Errorf("features = %v", red.Features)
	}
	if red.IFL != 0 {
		t.Errorf("IFL = %v, want 0 for homogeneous groups", red.IFL)
	}
}

func TestFromMembershipValidation(t *testing.T) {
	g := uniGrid([][]float64{{1, math.NaN()}}, grid.Average)
	if _, err := FromMembership(g, []int{0}); err == nil {
		t.Error("want length error")
	}
	if _, err := FromMembership(g, []int{-1, -1}); err == nil {
		t.Error("want unassigned-valid-cell error")
	}
	if _, err := FromMembership(g, []int{0, 0}); err == nil {
		t.Error("want assigned-null-cell error")
	}
	if _, err := FromMembership(g, []int{1, -1}); err == nil {
		t.Error("want dense-ids error (group 0 empty)")
	}
}

func TestAdjacency(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 1, 5},
		{1, 1, 5},
	}, grid.Average)
	red, err := FromMembership(g, []int{0, 0, 1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	adj := red.Adjacency(2, 3)
	if len(adj[0]) != 1 || adj[0][0] != 1 {
		t.Errorf("adj[0] = %v, want [1]", adj[0])
	}
	if len(adj[1]) != 1 || adj[1][0] != 0 {
		t.Errorf("adj[1] = %v, want [0]", adj[1])
	}
}

func TestTrainingData(t *testing.T) {
	g := grid.New(2, 2, []grid.Attribute{
		{Name: "a", Agg: grid.Average},
		{Name: "y", Agg: grid.Average},
	})
	g.SetVector(0, 0, []float64{1, 10})
	g.SetVector(0, 1, []float64{2, 20})
	g.SetVector(1, 0, []float64{3, 30})
	g.SetVector(1, 1, []float64{4, 40})
	red, err := FromMembership(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := red.TrainingData(g, 1, bounds())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.NumFeatures() != 1 {
		t.Fatalf("dataset %dx%d, want 2x1", d.Len(), d.NumFeatures())
	}
	if d.Y[0] != 15 || d.Y[1] != 35 {
		t.Errorf("Y = %v", d.Y)
	}
	if len(d.Neighbors[0]) != 1 || d.Neighbors[0][0] != 1 {
		t.Errorf("neighbors = %v", d.Neighbors)
	}
	if _, err := red.TrainingData(g, 5, bounds()); err == nil {
		t.Error("want target range error")
	}
}

func TestFromSamplesVoronoi(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2, 3, 4},
	}, grid.Average)
	red, err := FromSamples(g, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Groups) != 2 {
		t.Fatalf("groups = %d", len(red.Groups))
	}
	// Cells 0,1 belong to sample 0; cells 2,3 to sample 3.
	want := []int{0, 0, 1, 1}
	for i, w := range want {
		if red.Assign[i] != w {
			t.Errorf("assign = %v, want %v", red.Assign, want)
			break
		}
	}
	// Features are the samples' own values, not aggregates.
	if red.Features[0][0] != 1 || red.Features[1][0] != 4 {
		t.Errorf("features = %v", red.Features)
	}
	// IFL: cell1 rep'd by 1 (|2-1|/2), cell2 by 4 (|3-4|/3); cells 0,3 exact.
	wantIFL := (0 + 0.5 + 1.0/3.0 + 0) / 4
	if math.Abs(red.IFL-wantIFL) > 1e-12 {
		t.Errorf("IFL = %v, want %v", red.IFL, wantIFL)
	}
}

func TestFromSamplesErrors(t *testing.T) {
	g := uniGrid([][]float64{{1, math.NaN()}}, grid.Average)
	if _, err := FromSamples(g, nil); err == nil {
		t.Error("want no-samples error")
	}
	if _, err := FromSamples(g, []int{1}); err == nil {
		t.Error("want null-sample error")
	}
	if _, err := FromSamples(g, []int{0, 0}); err == nil {
		t.Error("want duplicate-sample error")
	}
}

func TestFromSamplesSkipsNullCells(t *testing.T) {
	nan := math.NaN()
	g := uniGrid([][]float64{
		{5, nan, 7},
	}, grid.Average)
	red, err := FromSamples(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if red.Assign[1] != -1 {
		t.Error("null cell must stay unassigned")
	}
	if len(red.Groups[0]) != 1 || len(red.Groups[1]) != 1 {
		t.Errorf("groups = %v", red.Groups)
	}
}

func TestFromMembershipSumIFL(t *testing.T) {
	// Sum semantics: group total 30 over 2 cells represents 15 per cell.
	g := uniGrid([][]float64{{10, 20}}, grid.Sum)
	red, err := FromMembership(g, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if red.Features[0][0] != 30 {
		t.Fatalf("sum feature = %v, want 30", red.Features[0][0])
	}
	want := (5.0/10.0 + 5.0/20.0) / 2
	if math.Abs(red.IFL-want) > 1e-12 {
		t.Errorf("IFL = %v, want %v", red.IFL, want)
	}
}
