// Package boost implements a multi-class gradient boosting classifier with
// multinomial deviance loss — the Table III(a) model (scikit-learn
// hyperparameters n_estimators: 200, max_depth: 5, min_samples_leaf: 12,
// loss: deviance).
//
// Each boosting round fits one regression tree per class to the negative
// gradient of the deviance (the residual 1{y=k} − p_k), and updates the
// class scores with shrinkage. Tree leaf values are the mean residuals, i.e.
// the ensemble performs functional gradient descent with a squared-error
// tree fit — the standard simplification that preserves the algorithm's
// behavior at these depths.
package boost

import (
	"fmt"
	"math"
	"sort"

	"spatialrepart/internal/tree"
)

// Options configures FitClassifier. Zero values take the paper's Table I
// hyperparameters.
type Options struct {
	NumRounds      int     // default 200
	MaxDepth       int     // default 5
	MinSamplesLeaf int     // default 12
	LearningRate   float64 // default 0.1 (scikit-learn's default)
}

func (o *Options) defaults() {
	if o.NumRounds == 0 {
		o.NumRounds = 200
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.MinSamplesLeaf == 0 {
		o.MinSamplesLeaf = 12
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
}

// Classifier is a fitted gradient boosting classifier.
type Classifier struct {
	classes []int          // sorted distinct labels
	prior   []float64      // initial log-odds per class
	stages  [][]*tree.Tree // stages[round][classIndex]
	rate    float64
}

// FitClassifier trains the boosted ensemble on integer class labels.
func FitClassifier(x [][]float64, labels []int, opts Options) (*Classifier, error) {
	n := len(labels)
	if len(x) != n {
		return nil, fmt.Errorf("boost: %d feature rows vs %d labels", len(x), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("boost: empty training set")
	}
	opts.defaults()

	// Map labels to contiguous class indices.
	classSet := map[int]bool{}
	for _, l := range labels {
		classSet[l] = true
	}
	classes := make([]int, 0, len(classSet))
	for l := range classSet {
		classes = append(classes, l)
	}
	sort.Ints(classes)
	classIdx := map[int]int{}
	for i, l := range classes {
		classIdx[l] = i
	}
	k := len(classes)
	yIdx := make([]int, n)
	for i, l := range labels {
		yIdx[i] = classIdx[l]
	}

	// Initial scores: log class priors.
	prior := make([]float64, k)
	for _, yi := range yIdx {
		prior[yi]++
	}
	for j := range prior {
		p := prior[j] / float64(n)
		if p <= 0 {
			p = 1e-9
		}
		prior[j] = math.Log(p)
	}

	c := &Classifier{classes: classes, prior: prior, rate: opts.LearningRate}
	if k == 1 {
		return c, nil // degenerate single-class problem: prior decides
	}

	// Score matrix F[i][j] and per-round updates.
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, k)
		copy(f[i], prior)
	}
	probs := make([]float64, k)
	resid := make([]float64, n)

	for round := 0; round < opts.NumRounds; round++ {
		stage := make([]*tree.Tree, k)
		for j := 0; j < k; j++ {
			// Negative gradient of multinomial deviance: 1{y=j} − p_j.
			for i := 0; i < n; i++ {
				softmax(f[i], probs)
				ind := 0.0
				if yIdx[i] == j {
					ind = 1
				}
				resid[i] = ind - probs[j]
			}
			tr, err := tree.Fit(x, resid, nil, tree.Options{
				MaxDepth:       opts.MaxDepth,
				MinSamplesLeaf: opts.MinSamplesLeaf,
			})
			if err != nil {
				return nil, fmt.Errorf("boost: round %d class %d: %w", round, j, err)
			}
			stage[j] = tr
			for i := 0; i < n; i++ {
				v, err := tr.Predict(x[i])
				if err != nil {
					return nil, err
				}
				f[i][j] += opts.LearningRate * v
			}
		}
		c.stages = append(c.stages, stage)
	}
	return c, nil
}

// scores computes the raw class scores at one query point.
func (c *Classifier) scores(row []float64) ([]float64, error) {
	s := make([]float64, len(c.classes))
	copy(s, c.prior)
	for _, stage := range c.stages {
		for j, tr := range stage {
			v, err := tr.Predict(row)
			if err != nil {
				return nil, err
			}
			s[j] += c.rate * v
		}
	}
	return s, nil
}

// Predict returns the most probable class label at each query point.
func (c *Classifier) Predict(x [][]float64) ([]int, error) {
	out := make([]int, len(x))
	for q, row := range x {
		s, err := c.scores(row)
		if err != nil {
			return nil, err
		}
		best := 0
		for j := 1; j < len(s); j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		out[q] = c.classes[best]
	}
	return out, nil
}

func softmax(scores, dst []float64) {
	maxS := scores[0]
	for _, v := range scores[1:] {
		if v > maxS {
			maxS = v
		}
	}
	var sum float64
	for j, v := range scores {
		e := math.Exp(v - maxS)
		dst[j] = e
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}
