package svm

import (
	"math"
	"math/rand"
	"testing"

	"spatialrepart/internal/metrics"
)

func TestSVRFitsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64() * 6
		x[i] = []float64{v}
		y[i] = math.Sin(v)
	}
	m, err := FitSVR(x, y, Options{C: 10, Gamma: 1, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := metrics.RMSE(pred, y)
	if rmse > 0.1 {
		t.Errorf("RMSE = %v, want < 0.1 on noiseless sine", rmse)
	}
}

func TestSVRWithinEpsilonTube(t *testing.T) {
	// With a large C and noiseless data, training residuals should mostly sit
	// within the ε-tube.
	rng := rand.New(rand.NewSource(2))
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64()
		b := rng.Float64()
		x[i] = []float64{a, b}
		y[i] = a + 0.5*b
	}
	m, err := FitSVR(x, y, Options{C: 100, Gamma: 0.5, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := m.Predict(x)
	outside := 0
	for i := range pred {
		if math.Abs(pred[i]-y[i]) > 0.05+1e-6 {
			outside++
		}
	}
	if outside > n/10 {
		t.Errorf("%d/%d residuals outside the ε-tube", outside, n)
	}
}

func TestSVRSparsity(t *testing.T) {
	// The ε-tube should leave many training points as non-support-vectors on
	// smooth data.
	rng := rand.New(rand.NewSource(3))
	n := 150
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v}
		y[i] = 2 * v
	}
	m, err := FitSVR(x, y, Options{C: 15, Gamma: 0.5, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.beta) >= n {
		t.Errorf("support vectors = %d, want < n = %d with a wide tube", len(m.beta), n)
	}
	if len(m.beta) == 0 {
		t.Error("no support vectors at all")
	}
}

func TestSVRUncachedKernelAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 60
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64() * 3
		x[i] = []float64{v}
		y[i] = v * v / 3
	}
	cached, err := FitSVR(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := FitSVR(x, y, Options{MaxKernelCache: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := cached.Predict(x)
	pu, _ := uncached.Predict(x)
	for i := range pc {
		if math.Abs(pc[i]-pu[i]) > 1e-9 {
			t.Fatalf("cached and uncached paths disagree at %d: %v vs %v", i, pc[i], pu[i])
		}
	}
}

func TestSVRDefaultsMatchPaper(t *testing.T) {
	var o Options
	o.defaults()
	if o.C != 15 || o.Gamma != 0.5 || o.Epsilon != 0.01 {
		t.Errorf("defaults = %+v, want C=15 gamma=0.5 epsilon=0.01 (Table I)", o)
	}
}

func TestSVRErrors(t *testing.T) {
	if _, err := FitSVR(nil, nil, Options{}); err == nil {
		t.Error("want empty error")
	}
	if _, err := FitSVR([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("want length mismatch error")
	}
	if _, err := FitSVR([][]float64{{1}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("want ragged error")
	}
	m, err := FitSVR([][]float64{{1}, {2}}, []float64{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([][]float64{{1, 2}}); err == nil {
		t.Error("want predict arity error")
	}
}

func TestSVRDeterministic(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}, {1.5}, {2}}
	y := []float64{0, 1, 2, 3, 4}
	a, err := FitSVR(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitSVR(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Predict(x)
	pb, _ := b.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("SVR training is not deterministic")
		}
	}
}
