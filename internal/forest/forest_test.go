package forest

import (
	"math"
	"math/rand"
	"testing"

	"spatialrepart/internal/metrics"
)

func synth(seed int64, n int) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		a, b, c := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		x[i] = []float64{a, b, c}
		y[i] = 2*a - b + 0.5*a*b + rng.NormFloat64()*0.5
	}
	return x, y
}

func TestForestFitsNonlinearData(t *testing.T) {
	x, y := synth(1, 600)
	f, err := FitForest(x, y, Options{NumTrees: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := f.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := metrics.PseudoR2(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.8 {
		t.Errorf("in-sample R² = %v, want ≥ 0.8", r2)
	}
}

func TestForestGeneralizes(t *testing.T) {
	xTr, yTr := synth(2, 800)
	xTe, yTe := synth(3, 200)
	f, err := FitForest(xTr, yTr, Options{NumTrees: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := f.Predict(xTe)
	r2, err := metrics.PseudoR2(pred, yTe)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.6 {
		t.Errorf("out-of-sample R² = %v, want ≥ 0.6", r2)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	x, y := synth(4, 100)
	a, _ := FitForest(x, y, Options{NumTrees: 10, Seed: 7})
	b, _ := FitForest(x, y, Options{NumTrees: 10, Seed: 7})
	pa, _ := a.Predict(x[:10])
	pb, _ := b.Predict(x[:10])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("forest not deterministic under equal seeds")
		}
	}
	c, _ := FitForest(x, y, Options{NumTrees: 10, Seed: 8})
	pc, _ := c.Predict(x[:10])
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical forests")
	}
}

func TestForestDefaultsMatchPaper(t *testing.T) {
	var o Options
	o.defaults()
	if o.NumTrees != 225 || o.MaxDepth != 7 || o.MinSamplesLeaf != 20 {
		t.Errorf("defaults = %+v, want Table I values 225/7/20", o)
	}
}

func TestForestErrors(t *testing.T) {
	if _, err := FitForest(nil, nil, Options{}); err == nil {
		t.Error("want empty error")
	}
	if _, err := FitForest([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("want mismatch error")
	}
	x, y := synth(5, 50)
	f, _ := FitForest(x, y, Options{NumTrees: 5, Seed: 1})
	if len(f.trees) != 5 {
		t.Errorf("NumTrees = %d, want 5", len(f.trees))
	}
	if _, err := f.Predict([][]float64{{1}}); err == nil {
		t.Error("want predict arity error")
	}
}

func TestForestBetterThanSingleTreeOOS(t *testing.T) {
	xTr, yTr := synth(6, 500)
	xTe, yTe := synth(7, 200)
	single, err := FitForest(xTr, yTr, Options{NumTrees: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := FitForest(xTr, yTr, Options{NumTrees: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := single.Predict(xTe)
	pe, _ := ensemble.Predict(xTe)
	rs, _ := metrics.RMSE(ps, yTe)
	re, _ := metrics.RMSE(pe, yTe)
	if re >= rs {
		t.Errorf("ensemble RMSE %v should beat single-tree RMSE %v", re, rs)
	}
	if math.IsNaN(re) {
		t.Fatal("NaN prediction")
	}
}
