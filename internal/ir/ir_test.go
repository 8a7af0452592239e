package ir

import "testing"

// daxpyProgram: for i { Y[i] = Y[i] + A[i] } — pure stream.
func daxpyProgram() Program {
	return Program{Name: "daxpy", Kernels: []Kernel{{
		Name: "axpy",
		Body: []Stmt{Loop{Var: "i", Bound: "n", Body: []Stmt{
			Assign{
				LHS: Ref{Array: "Y", ElemSize: 8, Index: Ix("i")},
				RHS: []Ref{
					{Array: "Y", ElemSize: 8, Index: Ix("i")},
					{Array: "A", ElemSize: 8, Index: Ix("i")},
				},
			},
		}}},
	}}}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Ix("i"), "i"},
		{Affine("i", 3, 0), "3*i"},
		{Affine("i", 1, -1), "i+-1"},
		{Expr{Offset: 7}, "7"},
		{Expr{}, "0"},
		{IndirectIx("C", 4, Ix("i")), "C[i]"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
	}
	r := Ref{Array: "A", ElemSize: 8, Index: Ix("i")}
	if r.String() != "A[i]" {
		t.Fatalf("Ref.String() = %q", r.String())
	}
}

func TestExprPredicates(t *testing.T) {
	ind := IndirectIx("C", 4, Ix("i"))
	if !ind.IsIndirect() || Ix("i").IsIndirect() {
		t.Fatal("indirect predicates wrong")
	}
	if Ix("i").Coef("i") != 1 || Ix("i").Coef("j") != 0 {
		t.Fatal("Coef wrong")
	}
	if (Expr{}).Coef("i") != 0 {
		t.Fatal("nil terms Coef should be 0")
	}
}

func TestValidate(t *testing.T) {
	if err := daxpyProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := []Program{
		{Kernels: []Kernel{{Name: "k", Body: []Stmt{Loop{Var: "", Body: nil}}}}},
		{Kernels: []Kernel{{Name: "k", Body: []Stmt{Assign{}}}}},
		{Kernels: []Kernel{{Name: "k", Body: []Stmt{
			Assign{LHS: Ref{Array: "A", ElemSize: 0, Index: Ix("i")}},
		}}}},
		{Kernels: []Kernel{{Name: "k", Body: []Stmt{
			Assign{Scalar: "x", RHS: []Ref{{Array: "", ElemSize: 8}}},
		}}}},
		{Kernels: []Kernel{{Name: "k", Body: []Stmt{
			Assign{Scalar: "x", RHS: []Ref{{Array: "A", ElemSize: 0}}},
		}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad program %d accepted", i)
		}
	}
}

func TestSitesFlattening(t *testing.T) {
	sites := daxpyProgram().Sites()
	if len(sites) != 3 {
		t.Fatalf("got %d sites, want 3 (1 store + 2 loads)", len(sites))
	}
	stores := 0
	for _, s := range sites {
		if s.IsStore {
			stores++
			if s.Ref.Array != "Y" {
				t.Fatalf("store to %q, want Y", s.Ref.Array)
			}
		}
		if len(s.LoopVars) != 1 || s.LoopVars[0] != "i" {
			t.Fatalf("loop vars = %v", s.LoopVars)
		}
		if s.Kernel != "axpy" {
			t.Fatalf("kernel = %q", s.Kernel)
		}
	}
	if stores != 1 {
		t.Fatalf("stores = %d, want 1", stores)
	}
}

func TestSitesNestedLoopsAndIndirect(t *testing.T) {
	// for i { for j { X[i] = X[i] + B[C[j]] } } — gather inside 2-deep nest.
	p := Program{Name: "gather", Kernels: []Kernel{{
		Name: "g",
		Body: []Stmt{Loop{Var: "i", Body: []Stmt{Loop{Var: "j", Body: []Stmt{
			Assign{
				LHS: Ref{Array: "X", ElemSize: 8, Index: Ix("i")},
				RHS: []Ref{
					{Array: "X", ElemSize: 8, Index: Ix("i")},
					{Array: "B", ElemSize: 8, Index: IndirectIx("C", 4, Ix("j"))},
				},
			},
		}}}}},
	}}}
	sites := p.Sites()
	// X store, X load, B gather load, C index load = 4 sites.
	if len(sites) != 4 {
		t.Fatalf("got %d sites, want 4", len(sites))
	}
	var sawC, sawB bool
	for _, s := range sites {
		if len(s.LoopVars) != 2 {
			t.Fatalf("nested loop vars = %v", s.LoopVars)
		}
		switch s.Ref.Array {
		case "C":
			sawC = true
			if s.Ref.Index.IsIndirect() {
				t.Fatal("index array C itself is accessed directly")
			}
		case "B":
			sawB = true
			if !s.Ref.Index.IsIndirect() {
				t.Fatal("B should be accessed indirectly")
			}
		}
	}
	if !sawC || !sawB {
		t.Fatal("missing index-array or gather site")
	}
}

func TestReductionMarksRHS(t *testing.T) {
	p := Program{Name: "sum", Kernels: []Kernel{{
		Name: "s",
		Body: []Stmt{Loop{Var: "i", Body: []Stmt{
			Assign{Scalar: "acc", RHS: []Ref{{Array: "A", ElemSize: 8, Index: Ix("i")}}},
		}}},
	}}}
	sites := p.Sites()
	if len(sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(sites))
	}
	if !sites[0].InReduction {
		t.Fatal("reduction read should be marked")
	}
}
