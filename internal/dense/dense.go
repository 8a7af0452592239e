// Package dense provides the dense linear-algebra kernels behind the DMRG
// proxy application: row-major matrix-vector products, dot/axpy/norm and a
// modified-Gram-Schmidt step — the inner loop of a Davidson eigensolver,
// which is what each DMRG rank runs in step S2 of Figure 1.a.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("dense: invalid shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Bytes returns the matrix footprint.
func (m *Matrix) Bytes() uint64 { return uint64(len(m.Data)) * 8 }

// MatVec computes y = M·x. Lengths must match.
func MatVec(m *Matrix, x, y []float64) error {
	if len(x) != m.Cols || len(y) != m.Rows {
		return fmt.Errorf("dense: matvec shape mismatch: %dx%d with |x|=%d |y|=%d", m.Rows, m.Cols, len(x), len(y))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, v := range row {
			s += v * x[c]
		}
		y[r] = s
	}
	return nil
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm returns ‖x‖₂.
func Norm(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// DavidsonStats reports the work of a Davidson run.
type DavidsonStats struct {
	Iterations int
	MatVecs    int
	Residual   float64
	Eigenvalue float64
}

// Davidson runs a basic Davidson/Lanczos-style iteration to approximate
// the dominant eigenpair of the symmetric matrix m, for maxIter
// iterations or until the residual drops below tol. It returns the
// eigenvector estimate and statistics — the per-instance computational
// kernel of a DMRG rank.
func Davidson(m *Matrix, v0 []float64, maxIter int, tol float64) ([]float64, DavidsonStats, error) {
	if m.Rows != m.Cols {
		return nil, DavidsonStats{}, fmt.Errorf("dense: davidson needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if len(v0) != m.Rows {
		return nil, DavidsonStats{}, fmt.Errorf("dense: v0 length %d for order %d", len(v0), m.Rows)
	}
	v := append([]float64(nil), v0...)
	n := Norm(v)
	if n == 0 {
		return nil, DavidsonStats{}, fmt.Errorf("dense: zero start vector")
	}
	for i := range v {
		v[i] /= n
	}
	var st DavidsonStats
	w := make([]float64, m.Rows)
	for it := 0; it < maxIter; it++ {
		st.Iterations++
		if err := MatVec(m, v, w); err != nil {
			return nil, st, err
		}
		st.MatVecs++
		lambda := Dot(v, w)
		st.Eigenvalue = lambda
		// Residual r = w − λv.
		var res float64
		for i := range w {
			d := w[i] - lambda*v[i]
			res += d * d
		}
		st.Residual = math.Sqrt(res)
		if st.Residual < tol {
			break
		}
		// Power-iteration style update with normalization (a Davidson
		// solver would precondition; the memory behaviour is the same).
		nw := Norm(w)
		if nw == 0 {
			break
		}
		for i := range w {
			v[i] = w[i] / nw
		}
	}
	return v, st, nil
}
