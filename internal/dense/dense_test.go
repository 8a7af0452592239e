package dense

import (
	"math"
	"testing"
)

func TestMatVec(t *testing.T) {
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// [1 2 3; 4 5 6] · [1 1 1] = [6 15]
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(m.Data, vals)
	y := make([]float64, 2)
	if err := MatVec(m, []float64{1, 1, 1}, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("y = %v", y)
	}
	if err := MatVec(m, []float64{1}, y); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if m.At(1, 2) != 6 {
		t.Fatal("At wrong")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set wrong")
	}
	if m.Bytes() != 48 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
	if _, err := NewMatrix(0, 3); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

func TestBlasHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Fatalf("Dot = %v", Dot(x, x))
	}
	if Norm(x) != 5 {
		t.Fatalf("Norm = %v", Norm(x))
	}
}

func TestDavidsonFindsDominantEigenpair(t *testing.T) {
	// Symmetric matrix with known dominant eigenvalue 4 (eigenvector e1
	// rotated): diag(4, 1, 0.5) in a rotated basis is overkill — use a
	// plain symmetric matrix and compare against power-iteration truth.
	m, _ := NewMatrix(3, 3)
	copy(m.Data, []float64{
		2, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	v, st, err := Davidson(m, []float64{1, 1, 1}, 500, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	// Characteristic polynomial factors as (2−λ)(λ−4)(λ−1): the dominant
	// eigenvalue is 4.
	want := 4.0
	if math.Abs(st.Eigenvalue-want) > 1e-6 {
		t.Fatalf("eigenvalue = %v, want %v", st.Eigenvalue, want)
	}
	if math.Abs(Norm(v)-1) > 1e-9 {
		t.Fatalf("eigenvector not normalized: %v", Norm(v))
	}
	if st.Residual > 1e-6 {
		t.Fatalf("residual = %v", st.Residual)
	}
	if st.MatVecs == 0 || st.Iterations == 0 {
		t.Fatal("no work recorded")
	}
}

func TestDavidsonValidation(t *testing.T) {
	m, _ := NewMatrix(2, 3)
	if _, _, err := Davidson(m, []float64{1, 1}, 10, 1e-6); err == nil {
		t.Fatal("non-square accepted")
	}
	sq, _ := NewMatrix(2, 2)
	if _, _, err := Davidson(sq, []float64{1}, 10, 1e-6); err == nil {
		t.Fatal("bad v0 length accepted")
	}
	if _, _, err := Davidson(sq, []float64{0, 0}, 10, 1e-6); err == nil {
		t.Fatal("zero start vector accepted")
	}
}
