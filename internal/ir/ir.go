// Package ir is a small loop-nest intermediate representation that stands
// in for application source code in the Merchandiser reproduction.
//
// The paper uses Spindle, an LLVM-based static-analysis tool, to classify
// the memory access pattern of each data object by extracting structural
// information around memory access instructions. Here, application kernels
// are written in this IR — loop nests over arrays with affine or indirect
// index expressions — and internal/spindle performs the same object-level
// classification over it (Table 1).
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an index expression: an affine combination of loop induction
// variables plus an optional indirection through another array
// (A[B[i]]-style gather/scatter).
type Expr struct {
	// Terms maps induction-variable name to its integer coefficient
	// (in elements). An empty map with Indirect == nil is a constant index.
	Terms map[string]int
	// Offset is the constant term, in elements.
	Offset int
	// SymbolicOffset marks offsets that depend on the input (e.g. a
	// neighbor list read from a file); it makes a stencil input-dependent.
	SymbolicOffset bool
	// Indirect, when non-nil, means the index is loaded from another
	// array: Array[Indirect.Array[inner]]. The outer access is then a
	// gather/scatter.
	Indirect *Ref
}

// Affine builds a single-variable affine index expression coef*v + offset.
func Affine(v string, coef, offset int) Expr {
	return Expr{Terms: map[string]int{v: coef}, Offset: offset}
}

// Ix builds the common unit-stride index v.
func Ix(v string) Expr { return Affine(v, 1, 0) }

// IndirectIx builds an indirect index through idxArray[inner].
func IndirectIx(idxArray string, elemSize int, inner Expr) Expr {
	return Expr{Indirect: &Ref{Array: idxArray, ElemSize: elemSize, Index: inner}}
}

// Coef returns the coefficient of variable v (0 if absent).
func (e Expr) Coef(v string) int {
	if e.Terms == nil {
		return 0
	}
	return e.Terms[v]
}

// IsIndirect reports whether the expression indexes through another array.
func (e Expr) IsIndirect() bool { return e.Indirect != nil }

// String renders the expression in source-like form.
func (e Expr) String() string {
	if e.Indirect != nil {
		return e.Indirect.String()
	}
	var parts []string
	vars := make([]string, 0, len(e.Terms))
	for v := range e.Terms {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		c := e.Terms[v]
		switch c {
		case 0:
			continue
		case 1:
			parts = append(parts, v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if e.Offset != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Offset))
	}
	return strings.Join(parts, "+")
}

// Ref is one array access.
type Ref struct {
	Array    string
	ElemSize int // bytes per element
	Index    Expr
}

// String renders the reference in source-like form.
func (r Ref) String() string { return fmt.Sprintf("%s[%s]", r.Array, r.Index) }

// Stmt is a statement in a loop body: either an assignment or a nested
// loop.
type Stmt interface{ isStmt() }

// Assign is an assignment whose left-hand side is an array store (or a
// scalar reduction when LHS.Array == "" / Scalar is set) and whose
// right-hand side reads the given refs.
type Assign struct {
	LHS    Ref
	Scalar string // non-empty for scalar reductions: x = x + A[i]
	RHS    []Ref
}

func (Assign) isStmt() {}

// Loop is a counted loop over an induction variable. Bound is symbolic
// (the object extent it iterates over) and only used for documentation.
type Loop struct {
	Var   string
	Bound string
	Body  []Stmt
}

func (Loop) isStmt() {}

// Kernel is a named loop nest, the unit Spindle analyzes.
type Kernel struct {
	Name string
	Body []Stmt
}

// Program is the IR of one task's code: its kernels plus the element size
// of each named array (so the analyzer can compute byte strides).
type Program struct {
	Name    string
	Kernels []Kernel
}

// Validate checks structural sanity: every Assign has either an array LHS
// or a scalar name, element sizes are positive, and loops declare
// induction variables.
func (p Program) Validate() error {
	for _, k := range p.Kernels {
		if err := validateStmts(k.Body, k.Name); err != nil {
			return err
		}
	}
	return nil
}

func validateStmts(body []Stmt, where string) error {
	for _, s := range body {
		switch st := s.(type) {
		case Loop:
			if st.Var == "" {
				return fmt.Errorf("ir: %s: loop without induction variable", where)
			}
			if err := validateStmts(st.Body, where); err != nil {
				return err
			}
		case Assign:
			if st.Scalar == "" && st.LHS.Array == "" {
				return fmt.Errorf("ir: %s: assignment with neither array nor scalar LHS", where)
			}
			if st.LHS.Array != "" && st.LHS.ElemSize <= 0 {
				return fmt.Errorf("ir: %s: store to %q with elem size %d", where, st.LHS.Array, st.LHS.ElemSize)
			}
			for _, r := range st.RHS {
				if r.Array == "" {
					return fmt.Errorf("ir: %s: read from unnamed array", where)
				}
				if r.ElemSize <= 0 {
					return fmt.Errorf("ir: %s: read from %q with elem size %d", where, r.Array, r.ElemSize)
				}
			}
		default:
			return fmt.Errorf("ir: %s: unknown statement type %T", where, s)
		}
	}
	return nil
}

// AccessSite is one array reference in context: the enclosing loop
// variables (outermost first) and whether it is a store.
type AccessSite struct {
	Kernel   string
	Ref      Ref
	LoopVars []string
	IsStore  bool
	// InReduction marks reads feeding a scalar reduction (x = x + A[i]),
	// one of the stream sub-forms of Section 4.
	InReduction bool
}

// Sites flattens the program into its access sites; the analyzer and tests
// consume this view.
func (p Program) Sites() []AccessSite {
	var out []AccessSite
	for _, k := range p.Kernels {
		collectSites(k.Name, k.Body, nil, &out)
	}
	return out
}

func collectSites(kernel string, body []Stmt, loops []string, out *[]AccessSite) {
	for _, s := range body {
		switch st := s.(type) {
		case Loop:
			collectSites(kernel, st.Body, append(loops[:len(loops):len(loops)], st.Var), out)
		case Assign:
			vars := append([]string(nil), loops...)
			if st.LHS.Array != "" {
				*out = append(*out, AccessSite{Kernel: kernel, Ref: st.LHS, LoopVars: vars, IsStore: true})
				// An indirect store also reads its index array.
				collectIndexReads(kernel, st.LHS.Index, vars, out)
			}
			for _, r := range st.RHS {
				*out = append(*out, AccessSite{Kernel: kernel, Ref: r, LoopVars: vars, InReduction: st.Scalar != ""})
				collectIndexReads(kernel, r.Index, vars, out)
			}
		}
	}
}

// collectIndexReads records the loads of index arrays used by indirect
// expressions (C in A[i]=B[C[i]] is itself streamed).
func collectIndexReads(kernel string, e Expr, vars []string, out *[]AccessSite) {
	if e.Indirect == nil {
		return
	}
	*out = append(*out, AccessSite{Kernel: kernel, Ref: *e.Indirect, LoopVars: vars})
	collectIndexReads(kernel, e.Indirect.Index, vars, out)
}
