// Package svm implements ε-support-vector regression with an RBF kernel —
// the Table II(d) model the paper trains through scikit-learn (kernel: rbf,
// C: 15, gamma: 0.5, epsilon: 0.01).
//
// The trainer solves the ε-SVR dual in the β = α − α* parameterization with
// the bias absorbed into an augmented kernel K' = K + 1 (a standard
// reformulation that removes the equality constraint Σβ = 0):
//
//	min_β  ½ βᵀK'β − yᵀβ + ε‖β‖₁   s.t. β_i ∈ [−C, C]
//
// which cyclic coordinate descent with exact per-coordinate soft-threshold
// updates solves to convergence. Each update has a closed form, the
// objective decreases monotonically, and the fitted function is
// f(x) = Σ β_i (K(x_i, x) + 1).
package svm

import (
	"fmt"
	"math"
)

// SVR is a fitted ε-support-vector regression model.
type SVR struct {
	C       float64
	Gamma   float64
	Epsilon float64

	supportX [][]float64 // support vectors (β ≠ 0)
	beta     []float64   // their coefficients
}

// Options configures FitSVR. Zero values take the paper's hyperparameters.
type Options struct {
	C       float64 // box constraint (default 15)
	Gamma   float64 // RBF width (default 0.5)
	Epsilon float64 // insensitive-tube half-width (default 0.01)
	// MaxPasses caps full coordinate sweeps (default 200).
	MaxPasses int
	// Tol stops training when no coordinate moved more than Tol in a sweep
	// (default 1e-4).
	Tol float64
	// MaxKernelCache caps the training-set size for which the full kernel
	// matrix is materialized (default 3000). Larger sets compute kernel rows
	// on the fly (slower but bounded memory).
	MaxKernelCache int
}

func (o *Options) defaults() {
	if o.C == 0 {
		o.C = 15
	}
	if o.Gamma == 0 {
		o.Gamma = 0.5
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.MaxKernelCache == 0 {
		o.MaxKernelCache = 3000
	}
}

// rbf evaluates exp(−γ‖a−b‖²).
func rbf(a, b []float64, gamma float64) float64 {
	var d2 float64
	for i, v := range a {
		d := v - b[i]
		d2 += d * d
	}
	return math.Exp(-gamma * d2)
}

// FitSVR trains an ε-SVR on x/y. Features should be on comparable scales
// (the experiment harness standardizes them), matching scikit-learn usage.
func FitSVR(x [][]float64, y []float64, opts Options) (*SVR, error) {
	n := len(y)
	if len(x) != n {
		return nil, fmt.Errorf("svm: %d feature rows vs %d responses", len(x), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	p := len(x[0])
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("svm: ragged features at row %d", i)
		}
	}
	opts.defaults()

	// Kernel access: cached matrix when affordable, else on-the-fly rows.
	var kmat []float64
	cached := n <= opts.MaxKernelCache
	if cached {
		kmat = make([]float64, n*n)
		for i := 0; i < n; i++ {
			kmat[i*n+i] = 2 // K(x,x)=1 plus the bias term
			for j := i + 1; j < n; j++ {
				v := rbf(x[i], x[j], opts.Gamma) + 1
				kmat[i*n+j] = v
				kmat[j*n+i] = v
			}
		}
	}
	kernelRow := func(i int, dst []float64) []float64 {
		if cached {
			return kmat[i*n : (i+1)*n]
		}
		for j := 0; j < n; j++ {
			dst[j] = rbf(x[i], x[j], opts.Gamma) + 1
		}
		return dst
	}

	beta := make([]float64, n)
	f := make([]float64, n) // f_i = Σ_j K'_ij β_j, maintained incrementally
	rowBuf := make([]float64, n)

	for pass := 0; pass < opts.MaxPasses; pass++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			row := kernelRow(i, rowBuf)
			kii := row[i]
			// Objective in β_i: ½·kii·β² + β·s + ε|β|, s = f_i − kii·β_i − y_i.
			s := f[i] - kii*beta[i] - y[i]
			var bNew float64
			switch {
			case s > opts.Epsilon:
				bNew = -(s - opts.Epsilon) / kii
			case s < -opts.Epsilon:
				bNew = -(s + opts.Epsilon) / kii
			default:
				bNew = 0
			}
			if bNew > opts.C {
				bNew = opts.C
			}
			if bNew < -opts.C {
				bNew = -opts.C
			}
			delta := bNew - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = bNew
			for j := 0; j < n; j++ {
				f[j] += delta * row[j]
			}
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < opts.Tol {
			break
		}
	}

	m := &SVR{C: opts.C, Gamma: opts.Gamma, Epsilon: opts.Epsilon}
	for i, b := range beta {
		if b != 0 {
			m.supportX = append(m.supportX, x[i])
			m.beta = append(m.beta, b)
		}
	}
	return m, nil
}

// Predict evaluates f(x) = Σ β_i (K(x_i, x) + 1) at each query point.
func (m *SVR) Predict(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	for q, row := range x {
		if len(m.supportX) > 0 && len(row) != len(m.supportX[0]) {
			return nil, fmt.Errorf("svm: query %d has %d features, want %d", q, len(row), len(m.supportX[0]))
		}
		var s float64
		for i, sv := range m.supportX {
			s += m.beta[i] * (rbf(sv, row, m.Gamma) + 1)
		}
		out[q] = s
	}
	return out, nil
}
