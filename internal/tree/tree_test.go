package tree

import (
	"math"
	"math/rand"
	"testing"

	"spatialrepart/internal/metrics"
)

func TestTreeFitsStepFunction(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{5, 5, 5, 9, 9, 9}
	tr, err := Fit(x, y, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		v, err := tr.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if v != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x[i], v, y[i])
		}
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64() * 10
		x[i] = []float64{v}
		y[i] = v * v
	}
	tr, err := Fit(x, y, nil, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every root-to-leaf path crosses at most MaxDepth splits.
	var depth func(id int32) int
	depth = func(id int32) int {
		if n := tr.nodes[id]; n.feature >= 0 {
			return 1 + max(depth(n.left), depth(n.right))
		}
		return 0
	}
	if d := depth(0); d > 3 {
		t.Errorf("depth = %d, want ≤ 3", d)
	}
}

func TestTreeRespectsMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = rng.Float64()
	}
	tr, err := Fit(x, y, nil, Options{MinSamplesLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Count leaf sizes by routing every training point down the tree.
	counts := map[float64]int{}
	for i := range x {
		v, _ := tr.Predict(x[i])
		counts[v]++
	}
	for v, cnt := range counts {
		if cnt < 20 {
			t.Errorf("leaf with value %v holds only %d samples", v, cnt)
		}
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	tr, err := Fit(x, y, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) != 1 {
		t.Errorf("constant target should give a single leaf, got %d nodes", len(tr.nodes))
	}
	v, _ := tr.Predict([]float64{99})
	if v != 7 {
		t.Errorf("Predict = %v, want 7", v)
	}
}

func TestTreeMultiFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		if a > 0.5 && b > 0.5 {
			y[i] = 10
		} else {
			y[i] = 0
		}
	}
	tr, err := Fit(x, y, nil, Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, n)
	for i := range x {
		pred[i], _ = tr.Predict(x[i])
	}
	rmse, _ := metrics.RMSE(pred, y)
	if rmse > 1.5 {
		t.Errorf("RMSE = %v, want small on an axis-aligned target", rmse)
	}
}

func TestTreeSubsetFit(t *testing.T) {
	x := [][]float64{{1}, {2}, {100}, {101}}
	y := []float64{1, 1, 50, 50}
	// Fit only on the first two samples: prediction everywhere is their mean.
	tr, err := Fit(x, y, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Predict([]float64{100})
	if v != 1 {
		t.Errorf("subset fit leaked other samples: Predict = %v, want 1", v)
	}
}

func TestTreeMaxFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := [][]float64{{1, 9}, {2, 8}, {3, 7}, {4, 6}}
	y := []float64{1, 2, 3, 4}
	if _, err := Fit(x, y, nil, Options{MaxFeatures: 1}); err == nil {
		t.Error("MaxFeatures without Rng should error")
	}
	tr, err := Fit(x, y, nil, Options{MaxFeatures: 1, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.nodes) == 0 {
		t.Error("empty tree")
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Options{}); err == nil {
		t.Error("want empty error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, nil, Options{}); err == nil {
		t.Error("want length mismatch error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, []int{}, Options{}); err == nil {
		t.Error("want empty subset error")
	}
	tr, _ := Fit([][]float64{{1}, {2}}, []float64{1, 2}, nil, Options{})
	if _, err := tr.Predict([]float64{1, 2}); err == nil {
		t.Error("want arity error")
	}
}

func TestTreePredictionIsTrainingMeanAtLeaves(t *testing.T) {
	// Single-leaf tree predicts the global mean.
	x := [][]float64{{5}, {5}, {5}}
	y := []float64{1, 2, 6}
	tr, err := Fit(x, y, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Predict([]float64{5})
	if math.Abs(v-3) > 1e-12 {
		t.Errorf("Predict = %v, want mean 3", v)
	}
}
