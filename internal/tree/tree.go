// Package tree implements CART regression trees with the mse (variance
// reduction) split criterion — the shared base learner for the random forest
// regressor (Table II(e)) and the gradient boosting classifier (Table
// III(a)).
package tree

import (
	"fmt"
	"math/rand"
	"sort"
)

// Options configures tree induction. Zero values mean: unlimited depth,
// leaves of at least one sample, and all features considered at each split.
type Options struct {
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures limits the number of features sampled (without
	// replacement) at each split; 0 considers all. Requires Rng when > 0.
	MaxFeatures int
	Rng         *rand.Rand
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right int32 // child indices into Tree.nodes
	value       float64
}

// Tree is a fitted regression tree.
type Tree struct {
	nodes []node
	p     int // feature arity
}

// Fit grows a tree on the sample subset idx of x/y (pass nil for all rows).
func Fit(x [][]float64, y []float64, idx []int, opts Options) (*Tree, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d feature rows vs %d responses", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	if idx == nil {
		idx = make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("tree: empty sample subset")
	}
	if opts.MinSamplesLeaf < 1 {
		opts.MinSamplesLeaf = 1
	}
	if opts.MaxFeatures > 0 && opts.Rng == nil {
		return nil, fmt.Errorf("tree: MaxFeatures requires Rng")
	}
	t := &Tree{p: len(x[0])}
	g := grower{x: x, y: y, opts: opts, tree: t}
	work := make([]int, len(idx))
	copy(work, idx)
	g.grow(work, 0)
	return t, nil
}

type grower struct {
	x    [][]float64
	y    []float64
	opts Options
	tree *Tree
}

// grow recursively builds the subtree for the samples in idx and returns the
// node index. idx is reordered in place when splitting.
func (g *grower) grow(idx []int, depth int) int32 {
	mean, sse := meanSSE(g.y, idx)
	id := int32(len(g.tree.nodes))
	g.tree.nodes = append(g.tree.nodes, node{feature: -1, value: mean})
	if (g.opts.MaxDepth > 0 && depth >= g.opts.MaxDepth) ||
		len(idx) < 2*g.opts.MinSamplesLeaf || sse <= 1e-12 {
		return id
	}
	feat, thresh, gain := g.bestSplit(idx, sse)
	if feat < 0 || gain <= 1e-12 {
		return id
	}
	// Partition idx by the chosen split.
	lo, hi := 0, len(idx)
	for lo < hi {
		if g.x[idx[lo]][feat] <= thresh {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo < g.opts.MinSamplesLeaf || len(idx)-lo < g.opts.MinSamplesLeaf {
		return id
	}
	left := g.grow(idx[:lo], depth+1)
	right := g.grow(idx[lo:], depth+1)
	n := &g.tree.nodes[id]
	n.feature = feat
	n.threshold = thresh
	n.left = left
	n.right = right
	return id
}

// bestSplit searches the (possibly subsampled) features for the split
// maximizing SSE reduction, honoring MinSamplesLeaf on both sides.
func (g *grower) bestSplit(idx []int, parentSSE float64) (feat int, thresh, gain float64) {
	feat = -1
	p := g.tree.p
	features := make([]int, p)
	for i := range features {
		features[i] = i
	}
	nFeat := p
	if g.opts.MaxFeatures > 0 && g.opts.MaxFeatures < p {
		g.opts.Rng.Shuffle(p, func(i, j int) { features[i], features[j] = features[j], features[i] })
		nFeat = g.opts.MaxFeatures
	}

	order := make([]int, len(idx))
	copy(order, idx)
	minLeaf := g.opts.MinSamplesLeaf
	var totalSum float64
	for _, i := range idx {
		totalSum += g.y[i]
	}
	total := float64(len(idx))

	for fi := 0; fi < nFeat; fi++ {
		f := features[fi]
		sort.Slice(order, func(a, b int) bool { return g.x[order[a]][f] < g.x[order[b]][f] })
		var leftSum float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			leftSum += g.y[i]
			nl := float64(k + 1)
			if k+1 < minLeaf || len(order)-k-1 < minLeaf {
				continue
			}
			xv, xn := g.x[i][f], g.x[order[k+1]][f]
			if xv == xn {
				continue // can't split between equal values
			}
			nr := total - nl
			rightSum := totalSum - leftSum
			// SSE reduction = leftSum²/nl + rightSum²/nr − totalSum²/n.
			red := leftSum*leftSum/nl + rightSum*rightSum/nr - totalSum*totalSum/total
			if red > gain {
				gain = red
				feat = f
				thresh = (xv + xn) / 2
			}
		}
	}
	_ = parentSSE
	return feat, thresh, gain
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// Predict evaluates the tree at one feature vector.
func (t *Tree) Predict(row []float64) (float64, error) {
	if len(row) != t.p {
		return 0, fmt.Errorf("tree: query has %d features, want %d", len(row), t.p)
	}
	id := int32(0)
	for {
		n := t.nodes[id]
		if n.feature < 0 {
			return n.value, nil
		}
		if row[n.feature] <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
}
