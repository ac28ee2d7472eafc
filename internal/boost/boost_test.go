package boost

import (
	"math/rand"
	"testing"

	"spatialrepart/internal/metrics"
)

// synthClasses draws points in the unit square labeled by quadrant — an easy
// 4-class problem any competent classifier should nail.
func synthClasses(seed int64, n int) (x [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	labels = make([]int, n)
	for i := range x {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		l := 0
		if a > 0.5 {
			l += 1
		}
		if b > 0.5 {
			l += 2
		}
		labels[i] = l
	}
	return x, labels
}

func TestBoostLearnsQuadrants(t *testing.T) {
	x, labels := synthClasses(1, 400)
	c, err := FitClassifier(x, labels, Options{NumRounds: 30, MaxDepth: 3, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := c.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := metrics.Accuracy(pred, labels)
	if acc < 0.95 {
		t.Errorf("training accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestBoostGeneralizes(t *testing.T) {
	xTr, lTr := synthClasses(2, 500)
	xTe, lTe := synthClasses(3, 200)
	c, err := FitClassifier(xTr, lTr, Options{NumRounds: 30, MaxDepth: 3, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict(xTe)
	f1, err := metrics.WeightedF1(pred, lTe)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.9 {
		t.Errorf("test F1 = %v, want ≥ 0.9", f1)
	}
}

func TestBoostNonContiguousLabels(t *testing.T) {
	// Labels need not be 0..k-1.
	x := [][]float64{{0}, {0.1}, {0.9}, {1}}
	labels := []int{10, 10, 99, 99}
	c, err := FitClassifier(x, labels, Options{NumRounds: 10, MaxDepth: 2, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict(x)
	for i, p := range pred {
		if p != labels[i] {
			t.Errorf("pred[%d] = %d, want %d", i, p, labels[i])
		}
	}
	got := c.classes
	if len(got) != 2 || got[0] != 10 || got[1] != 99 {
		t.Errorf("Classes = %v, want [10 99]", got)
	}
}

func TestBoostSingleClass(t *testing.T) {
	x := [][]float64{{1}, {2}}
	labels := []int{5, 5}
	c, err := FitClassifier(x, labels, Options{NumRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict([][]float64{{3}})
	if pred[0] != 5 {
		t.Errorf("single-class prediction = %d, want 5", pred[0])
	}
}

// TestBoostPredictProba checks that the softmax the fit trains against
// turns the fitted model's class scores into probability vectors.
func TestBoostPredictProba(t *testing.T) {
	x, labels := synthClasses(4, 200)
	c, err := FitClassifier(x, labels, Options{NumRounds: 15, MaxDepth: 3, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range x[:20] {
		scores, err := c.scores(row)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, len(scores))
		softmax(scores, p)
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatal("probability out of range")
			}
			s += v
		}
		if s < 0.999 || s > 1.001 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestBoostDefaultsMatchPaper(t *testing.T) {
	var o Options
	o.defaults()
	if o.NumRounds != 200 || o.MaxDepth != 5 || o.MinSamplesLeaf != 12 {
		t.Errorf("defaults = %+v, want Table I values 200/5/12", o)
	}
}

func TestBoostErrors(t *testing.T) {
	if _, err := FitClassifier(nil, nil, Options{}); err == nil {
		t.Error("want empty error")
	}
	if _, err := FitClassifier([][]float64{{1}}, []int{1, 2}, Options{}); err == nil {
		t.Error("want mismatch error")
	}
}

func TestBoostMoreRoundsHelp(t *testing.T) {
	xTr, lTr := synthClasses(5, 300)
	few, err := FitClassifier(xTr, lTr, Options{NumRounds: 2, MaxDepth: 2, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	many, err := FitClassifier(xTr, lTr, Options{NumRounds: 40, MaxDepth: 2, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := few.Predict(xTr)
	pm, _ := many.Predict(xTr)
	af, _ := metrics.Accuracy(pf, lTr)
	am, _ := metrics.Accuracy(pm, lTr)
	if am < af {
		t.Errorf("more rounds decreased accuracy: %v vs %v", am, af)
	}
	if len(few.stages) != 2 || len(many.stages) != 40 {
		t.Error("NumRounds bookkeeping wrong")
	}
}
