// Package knn implements a k-nearest-neighbors classifier backed by a
// kd-tree — the Table III(b) model (scikit-learn hyperparameters
// leaf_size: 18, n_neighbors: 7).
package knn

import (
	"fmt"
	"sort"
)

// Options configures FitClassifier. Zero values take the paper's Table I
// hyperparameters.
type Options struct {
	K        int // default 7
	LeafSize int // default 18
}

func (o *Options) defaults() {
	if o.K == 0 {
		o.K = 7
	}
	if o.LeafSize == 0 {
		o.LeafSize = 18
	}
}

// Classifier is a fitted kd-tree KNN classifier.
type Classifier struct {
	k      int
	points [][]float64
	labels []int
	root   *kdNode
}

type kdNode struct {
	axis        int
	split       float64
	left, right *kdNode
	// Leaf payload: indices into points.
	idx []int
}

// FitClassifier indexes the training points into a kd-tree.
func FitClassifier(x [][]float64, labels []int, opts Options) (*Classifier, error) {
	if len(x) != len(labels) {
		return nil, fmt.Errorf("knn: %d feature rows vs %d labels", len(x), len(labels))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("knn: empty training set")
	}
	p := len(x[0])
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("knn: ragged features at row %d", i)
		}
	}
	opts.defaults()
	c := &Classifier{k: opts.K, points: x, labels: labels}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	c.root = c.build(idx, 0, opts.LeafSize)
	return c, nil
}

func (c *Classifier) build(idx []int, depth, leafSize int) *kdNode {
	if len(idx) <= leafSize {
		return &kdNode{idx: idx}
	}
	axis := depth % len(c.points[0])
	sort.Slice(idx, func(a, b int) bool { return c.points[idx[a]][axis] < c.points[idx[b]][axis] })
	mid := len(idx) / 2
	split := c.points[idx[mid]][axis]
	// Degenerate axis (all values equal): fall back to a leaf.
	if c.points[idx[0]][axis] == c.points[idx[len(idx)-1]][axis] {
		if axis == len(c.points[0])-1 || depth > 64 {
			return &kdNode{idx: idx}
		}
		return c.build(idx, depth+1, leafSize)
	}
	return &kdNode{
		axis:  axis,
		split: split,
		left:  c.build(append([]int{}, idx[:mid]...), depth+1, leafSize),
		right: c.build(append([]int{}, idx[mid:]...), depth+1, leafSize),
	}
}

// neighborHeap is a bounded max-heap of the current k best candidates.
type neighborHeap struct {
	d2  []float64
	idx []int
	cap int
}

func (h *neighborHeap) push(d2 float64, idx int) {
	if len(h.d2) < h.cap {
		h.d2 = append(h.d2, d2)
		h.idx = append(h.idx, idx)
		h.up(len(h.d2) - 1)
		return
	}
	if d2 >= h.d2[0] {
		return
	}
	h.d2[0], h.idx[0] = d2, idx
	h.down(0)
}

func (h *neighborHeap) worst() float64 {
	if len(h.d2) < h.cap {
		return -1 // signals "not full yet"
	}
	return h.d2[0]
}

func (h *neighborHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.d2[parent] >= h.d2[i] {
			break
		}
		h.d2[parent], h.d2[i] = h.d2[i], h.d2[parent]
		h.idx[parent], h.idx[i] = h.idx[i], h.idx[parent]
		i = parent
	}
}

func (h *neighborHeap) down(i int) {
	n := len(h.d2)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.d2[l] > h.d2[largest] {
			largest = l
		}
		if r < n && h.d2[r] > h.d2[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.d2[largest], h.d2[i] = h.d2[i], h.d2[largest]
		h.idx[largest], h.idx[i] = h.idx[i], h.idx[largest]
		i = largest
	}
}

// search descends the kd-tree collecting the k nearest training points.
func (c *Classifier) search(n *kdNode, q []float64, h *neighborHeap) {
	if n.idx != nil {
		for _, i := range n.idx {
			var d2 float64
			for j, v := range q {
				d := v - c.points[i][j]
				d2 += d * d
			}
			h.push(d2, i)
		}
		return
	}
	diff := q[n.axis] - n.split
	first, second := n.left, n.right
	if diff > 0 {
		first, second = n.right, n.left
	}
	c.search(first, q, h)
	if w := h.worst(); w < 0 || diff*diff <= w {
		c.search(second, q, h)
	}
}

// Predict returns the majority label among the k nearest training points for
// each query; distance ties and vote ties resolve to the smallest label.
func (c *Classifier) Predict(x [][]float64) ([]int, error) {
	out := make([]int, len(x))
	for qi, q := range x {
		if len(q) != len(c.points[0]) {
			return nil, fmt.Errorf("knn: query %d has %d features, want %d", qi, len(q), len(c.points[0]))
		}
		h := &neighborHeap{cap: c.k}
		c.search(c.root, q, h)
		votes := map[int]int{}
		for _, i := range h.idx {
			votes[c.labels[i]]++
		}
		best, bestN := 0, -1
		for l, n := range votes {
			if n > bestN || (n == bestN && l < best) {
				best, bestN = l, n
			}
		}
		out[qi] = best
	}
	return out, nil
}
