package apps

import (
	"fmt"
	"math"
	"math/rand"

	"merchandiser/internal/access"
	"merchandiser/internal/hm"
	"merchandiser/internal/ir"
	"merchandiser/internal/sparse"
	"merchandiser/internal/task"
)

// SpGEMMConfig parameterizes the SpGEMM application.
type SpGEMMConfig struct {
	Tasks int // OpenMP threads (paper: 12)
	// Scale/EdgeFactor size each task's base multiplication (2^Scale rows).
	Scale      int
	EdgeFactor int
	Instances  int
	// Rep is the replication factor: how many multiplications of the
	// measured structure one instance performs (Figure 1.b's main loop
	// runs a batch of SpGEMMs).
	Rep  float64
	Seed int64
}

func (c SpGEMMConfig) withDefaults() SpGEMMConfig {
	if c.Tasks <= 0 {
		c.Tasks = 12
	}
	if c.Scale <= 0 {
		c.Scale = 15
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 2
	}
	if c.Instances <= 0 {
		c.Instances = 6
	}
	if c.Rep <= 0 {
		c.Rep = 40
	}
	return c
}

// spgemmTaskWork is the measured real workload of one task's
// multiplication in one instance.
type spgemmTaskWork struct {
	aNNZ    int
	gathers int64
	cNNZ    int64
	aBytes  uint64
	bBytes  uint64
	cBytes  uint64
}

// SpGEMM is the sparse matrix-matrix multiplication application
// (Figure 1.b): every instance runs a batch of multiplications, one
// C_t = A_t·A_tᵀ per task, with per-task input sizes drawn from a skewed
// distribution — the "different distributions of non-zero elements of
// each matrix" the paper names as SpGEMM's inherent imbalance. The
// Gustavson kernel's symbolic phase runs at construction on the real
// operands; its per-task gather and non-zero counts become the simulator
// workload. The numeric phase and the values run only when Checksum asks
// for them: no count depends on a value.
type SpGEMM struct {
	cfg       SpGEMMConfig
	instances [][]spgemmTaskWork
	// edges holds each (instance, task) operand's edge count, so Checksum
	// can rebuild the operands.
	edges [][]int

	aObjs []*hm.Object
	bObjs []*hm.Object
	cObjs []*hm.Object
}

// operands builds task t's operands in instance i from an RMAT matrix
// with the given edge count: A, relabeled, and B = Aᵀ, which comes with
// the relabeling as the first of Permute's two transposes. They carry
// values only when weighted.
func (c SpGEMMConfig) operands(i, t, edges int, weighted bool) (a, b *sparse.CSR) {
	m := sparse.RMAT(sparse.RMATConfig{
		Scale: c.Scale, Edges: edges,
		A: 0.35, B: 0.25, C: 0.25,
		Seed:       c.Seed + int64(i*c.Tasks+t)*13,
		Unweighted: !weighted,
	})
	return sparse.PermuteAndTranspose(m, c.Seed+int64(i*c.Tasks+t)*29)
}

// csrBytes is the footprint CSR.Bytes reports for a matrix with rows rows
// and nnz stored values: the operands here are built structure-only, but
// the simulated application stores its values.
func csrBytes(rows int, nnz int64) uint64 {
	return uint64(rows+1)*4 + uint64(nnz)*(4+8)
}

// NewSpGEMM builds the application, running the symbolic SpGEMM for every
// (instance, task) pair up front on structure-only operands; matrices are
// discarded after their counts are extracted.
func NewSpGEMM(cfg SpGEMMConfig) (*SpGEMM, error) {
	cfg = cfg.withDefaults()
	app := &SpGEMM{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Per-task input-size skew: the multiplications in the batch differ in
	// size, but each task keeps its multiplication across iterations (the
	// paper's premise: a task's algorithm and access behaviour are stable
	// across instances; only the input data changes, mildly in size).
	taskMul := make([]float64, cfg.Tasks)
	var mulSum float64
	for t := range taskMul {
		taskMul[t] = math.Exp(rng.NormFloat64() * 0.15)
		mulSum += taskMul[t]
	}
	// Normalize the batch: the footprint (dominated by the produced C
	// matrices, superlinear in the input edges) must stay within PM for
	// every seed, so the mean multiplier is pinned while the skew across
	// tasks — the inherent imbalance — is preserved.
	norm := 0.9 * float64(cfg.Tasks) / mulSum
	for t := range taskMul {
		taskMul[t] *= norm
	}
	for i := 0; i < cfg.Instances; i++ {
		works := make([]spgemmTaskWork, cfg.Tasks)
		edgeCounts := make([]int, cfg.Tasks)
		for t := 0; t < cfg.Tasks; t++ {
			sizeMul := taskMul[t] * math.Exp(rng.NormFloat64()*0.06)
			edges := int(float64((1<<cfg.Scale)*cfg.EdgeFactor) * sizeMul)
			a, b := cfg.operands(i, t, edges, false)
			rowNNZ, gathers := sparse.SymbolicRange(a, b, 0, a.Rows)
			var cNNZ int64
			for _, n := range rowNNZ {
				cNNZ += int64(n)
			}
			works[t] = spgemmTaskWork{
				aNNZ:    a.NNZ(),
				gathers: gathers,
				cNNZ:    cNNZ,
				aBytes:  csrBytes(a.Rows, int64(a.NNZ())),
				bBytes:  csrBytes(b.Rows, int64(b.NNZ())),
				cBytes:  csrBytes(a.Rows, cNNZ),
			}
			edgeCounts[t] = edges
		}
		app.instances = append(app.instances, works)
		app.edges = append(app.edges, edgeCounts)
	}
	return app, nil
}

// Name implements task.App.
func (s *SpGEMM) Name() string { return "SpGEMM" }

// NumInstances implements task.App.
func (s *SpGEMM) NumInstances() int { return s.cfg.Instances }

// Checksum sums every C value of every multiplication, in instance, task
// and CSR order — identical across placement policies, since placement
// must never change results. It rebuilds the weighted operands and runs
// the numeric phase on each call: the construction builds structure only.
func (s *SpGEMM) Checksum() float64 {
	var sum float64
	for i, counts := range s.edges {
		for t, edges := range counts {
			a, b := s.cfg.operands(i, t, edges, true)
			rowNNZ, _ := sparse.SymbolicRange(a, b, 0, a.Rows)
			c, _ := sparse.NumericRange(a, b, 0, a.Rows, rowNNZ)
			for _, v := range c.Val {
				sum += v
			}
		}
	}
	return sum
}

// Setup implements task.App; per-instance objects are allocated in
// Instance.
func (s *SpGEMM) Setup(mem *hm.Memory) error {
	s.aObjs = make([]*hm.Object, s.cfg.Tasks)
	s.bObjs = make([]*hm.Object, s.cfg.Tasks)
	s.cObjs = make([]*hm.Object, s.cfg.Tasks)
	return nil
}

func (s *SpGEMM) taskName(t int) string { return fmt.Sprintf("thread%02d", t) }

// Instance implements task.App.
func (s *SpGEMM) Instance(i int, mem *hm.Memory) ([]hm.TaskWork, error) {
	if err := freeAll(mem, s.aObjs); err != nil {
		return nil, err
	}
	if err := freeAll(mem, s.bObjs); err != nil {
		return nil, err
	}
	if err := freeAll(mem, s.cObjs); err != nil {
		return nil, err
	}
	works := make([]hm.TaskWork, s.cfg.Tasks)
	aStream := access.Pattern{Kind: access.Stream, ElemSize: 4}
	bGather := access.Pattern{Kind: access.Random, ElemSize: 8, Skew: 0.5}
	cStream := access.Pattern{Kind: access.Stream, ElemSize: 8}
	for t := 0; t < s.cfg.Tasks; t++ {
		w := s.instances[i][t]
		owner := s.taskName(t)
		var err error
		if s.aObjs[t], err = mem.Alloc(fmt.Sprintf("spgemm/A%02d", t), owner, w.aBytes, hm.PM); err != nil {
			return nil, err
		}
		if s.bObjs[t], err = mem.Alloc(fmt.Sprintf("spgemm/B%02d", t), owner, w.bBytes, hm.PM); err != nil {
			return nil, err
		}
		if s.cObjs[t], err = mem.Alloc(fmt.Sprintf("spgemm/C%02d", t), owner, w.cBytes, hm.PM); err != nil {
			return nil, err
		}
		rep := s.cfg.Rep
		works[t] = hm.TaskWork{
			Name: owner,
			Phases: []hm.Phase{
				{
					Name:           "symbolic",
					ComputeSeconds: 2e-9 * float64(w.gathers) * rep,
					Accesses: []hm.PhaseAccess{
						{Obj: s.aObjs[t], Pattern: aStream, ProgramAccesses: float64(w.aNNZ) * rep},
						{Obj: s.bObjs[t], Pattern: bGather, ProgramAccesses: float64(w.gathers) * rep, Seed: 3},
					},
				},
				{
					Name:           "numeric",
					ComputeSeconds: 3e-9 * float64(w.gathers) * rep,
					Accesses: []hm.PhaseAccess{
						{Obj: s.aObjs[t], Pattern: aStream, ProgramAccesses: float64(w.aNNZ) * rep},
						{Obj: s.bObjs[t], Pattern: bGather, ProgramAccesses: float64(w.gathers) * rep, Seed: 3},
						{Obj: s.cObjs[t], Pattern: cStream, ProgramAccesses: float64(w.cNNZ) * rep, WriteFrac: 0.9},
					},
				},
			},
		}
	}
	return works, nil
}

// IR implements IRApp: the Gustavson inner loop in the loop-nest IR, for
// Table 1's static pattern classification (expected: Stream + Random).
func (s *SpGEMM) IR() ir.Program {
	return ir.Program{
		Name: "SpGEMM",
		Kernels: []ir.Kernel{{
			Name: "gustavson",
			Body: []ir.Stmt{ir.Loop{Var: "p", Bound: "nnzA", Body: []ir.Stmt{
				// acc += Aval[p] * Bval[Bptr[Acol[p]] + q] — B gathered
				// through A's column index.
				ir.Assign{
					Scalar: "acc",
					RHS: []ir.Ref{
						{Array: "A", ElemSize: 8, Index: ir.Ix("p")},
						{Array: "B", ElemSize: 8, Index: ir.IndirectIx("Acol", 4, ir.Ix("p"))},
					},
				},
				// C[p] = acc — streamed output.
				ir.Assign{
					LHS: ir.Ref{Array: "C", ElemSize: 8, Index: ir.Ix("p")},
					RHS: []ir.Ref{},
				},
			}}},
		}},
	}
}

var _ task.App = (*SpGEMM)(nil)
var _ IRApp = (*SpGEMM)(nil)
