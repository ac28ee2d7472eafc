package knn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialrepart/internal/metrics"
)

func synthClasses(seed int64, n int) (x [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	labels = make([]int, n)
	for i := range x {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		l := 0
		if a > 0.5 {
			l++
		}
		if b > 0.5 {
			l += 2
		}
		labels[i] = l
	}
	return x, labels
}

func TestKNNLearnsQuadrants(t *testing.T) {
	x, labels := synthClasses(1, 500)
	c, err := FitClassifier(x, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xTe, lTe := synthClasses(2, 200)
	pred, err := c.Predict(xTe)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := metrics.Accuracy(pred, lTe)
	if acc < 0.9 {
		t.Errorf("accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestKNNK1MemorizesTraining(t *testing.T) {
	x, labels := synthClasses(3, 200)
	c, err := FitClassifier(x, labels, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := c.Predict(x)
	acc, _ := metrics.Accuracy(pred, labels)
	if acc != 1 {
		t.Errorf("1-NN training accuracy = %v, want 1", acc)
	}
}

// TestKNNMatchesBruteForce: the kd-tree must return the same votes as a
// brute-force scan.
func TestKNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		x := make([][]float64, n)
		labels := make([]int, n)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			labels[i] = rng.Intn(4)
		}
		c, err := FitClassifier(x, labels, Options{K: 5, LeafSize: 4})
		if err != nil {
			return false
		}
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pred, err := c.Predict([][]float64{q})
		if err != nil {
			return false
		}
		// Brute force.
		type nd struct {
			d2 float64
			l  int
		}
		all := make([]nd, n)
		for i := range x {
			var d2 float64
			for j := range q {
				d := q[j] - x[i][j]
				d2 += d * d
			}
			all[i] = nd{d2, labels[i]}
		}
		// Selection sort top-5.
		for s := 0; s < 5; s++ {
			m := s
			for t := s + 1; t < n; t++ {
				if all[t].d2 < all[m].d2 {
					m = t
				}
			}
			all[s], all[m] = all[m], all[s]
		}
		votes := map[int]int{}
		for s := 0; s < 5; s++ {
			votes[all[s].l]++
		}
		best, bestN := 0, -1
		for l, cnt := range votes {
			if cnt > bestN || (cnt == bestN && l < best) {
				best, bestN = l, cnt
			}
		}
		return pred[0] == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKNNDefaultsMatchPaper(t *testing.T) {
	var o Options
	o.defaults()
	if o.K != 7 || o.LeafSize != 18 {
		t.Errorf("defaults = %+v, want Table I values K=7 leaf=18", o)
	}
}

func TestKNNDuplicatePoints(t *testing.T) {
	// All identical points: must not loop forever, must predict the label.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	labels := []int{2, 2, 2, 2}
	c, err := FitClassifier(x, labels, Options{K: 3, LeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := c.Predict([][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 2 {
		t.Errorf("pred = %d, want 2", pred[0])
	}
}

func TestKNNErrors(t *testing.T) {
	if _, err := FitClassifier(nil, nil, Options{}); err == nil {
		t.Error("want empty error")
	}
	if _, err := FitClassifier([][]float64{{1}}, []int{1, 2}, Options{}); err == nil {
		t.Error("want mismatch error")
	}
	if _, err := FitClassifier([][]float64{{1}, {1, 2}}, []int{1, 2}, Options{}); err == nil {
		t.Error("want ragged error")
	}
	c, _ := FitClassifier([][]float64{{1}, {2}}, []int{0, 1}, Options{})
	if _, err := c.Predict([][]float64{{1, 2}}); err == nil {
		t.Error("want query arity error")
	}
	if c.k != 7 {
		t.Errorf("K = %d, want default 7", c.k)
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	labels := []int{1, 1, 0}
	c, err := FitClassifier(x, labels, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := c.Predict([][]float64{{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 1 {
		t.Errorf("pred = %d, want majority label 1", pred[0])
	}
}
