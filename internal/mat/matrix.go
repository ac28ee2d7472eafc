// Package mat provides small dense-matrix and vector primitives used by the
// spatial ML models in this repository. It deliberately implements only what
// the models need — multiplication, transpose products, and linear solvers —
// with plain float64 slices so that callers can reason about allocation.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	// Invariant: negative dimensions are a programmer error (mirrors what
	// make() itself would do).
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c)) //spatialvet:ignore panicsite constructor contract: negative dims are programmer error, like make()
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns a·x as a new vector.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * vec(%d)", a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// AtA returns aᵀa, exploiting symmetry.
func AtA(a *Dense) *Dense {
	p := a.Cols
	out := NewDense(p, p)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := 0; j < p; j++ {
			vj := row[j]
			if vj == 0 {
				continue
			}
			orow := out.Row(j)
			for k := j; k < p; k++ {
				orow[k] += vj * row[k]
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := j + 1; k < p; k++ {
			out.Set(k, j, out.At(j, k))
		}
	}
	return out
}

// AtVec returns aᵀy.
func AtVec(a *Dense, y []float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%dᵀ * vec(%d)", a.Rows, a.Cols, len(y))
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, v := range row {
			out[j] += v * yi
		}
	}
	return out, nil
}

// ErrSingular is returned when a solver meets a (numerically) singular system.
var ErrSingular = errors.New("mat: singular matrix")

// SolveLU solves a·x = b for x using LU decomposition with partial pivoting.
// a is not modified.
func SolveLU(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mat: SolveLU needs a square matrix, got %dx%d", n, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveLU rhs length %d, want %d", len(b), n)
	}
	lu := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(lu.At(i, k)); ab > maxAbs {
				p, maxAbs = i, ab
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			x[k], x[p] = x[p], x[k]
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			if f == 0 {
				continue
			}
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
			x[i] -= f * x[k]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s / lu.At(i, i)
	}
	return x, nil
}

// SolveCholesky solves a·x = b for symmetric positive-definite a. It is about
// twice as fast as LU for normal-equation systems. Falls back to ErrSingular
// if a is not positive definite.
func SolveCholesky(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mat: SolveCholesky needs a square matrix, got %dx%d", n, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveCholesky rhs length %d, want %d", len(b), n)
	}
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 1e-14 {
			return nil, ErrSingular
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ‖a·x − y‖² via ridge-stabilized normal equations.
// A tiny ridge (1e-10 × trace/p) keeps nearly collinear designs solvable
// without visibly biasing coefficients.
func LeastSquares(a *Dense, y []float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("mat: LeastSquares design %dx%d vs response %d", a.Rows, a.Cols, len(y))
	}
	ata := AtA(a)
	var trace float64
	for j := 0; j < ata.Cols; j++ {
		trace += ata.At(j, j)
	}
	ridge := 1e-10 * trace / float64(max(1, ata.Cols))
	for j := 0; j < ata.Cols; j++ {
		ata.Set(j, j, ata.At(j, j)+ridge)
	}
	aty, err := AtVec(a, y)
	if err != nil {
		return nil, err
	}
	x, err := SolveCholesky(ata, aty)
	if err == nil {
		return x, nil
	}
	return SolveLU(ata, aty)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
