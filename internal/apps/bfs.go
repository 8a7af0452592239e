package apps

import (
	"fmt"

	"merchandiser/internal/access"
	"merchandiser/internal/hm"
	"merchandiser/internal/ir"
	"merchandiser/internal/sparse"
	"merchandiser/internal/task"
)

// BFSConfig parameterizes the breadth-first-search application.
type BFSConfig struct {
	Tasks      int // vertex partitions (paper: 12 threads)
	Scale      int // RMAT scale
	EdgeFactor int
	Instances  int // traversals (each from a different source)
	Rep        float64
	Seed       int64
}

func (c BFSConfig) withDefaults() BFSConfig {
	if c.Tasks <= 0 {
		c.Tasks = 12
	}
	if c.Scale <= 0 {
		c.Scale = 20
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 8
	}
	if c.Instances <= 0 {
		c.Instances = 6
	}
	if c.Rep <= 0 {
		c.Rep = 4
	}
	return c
}

// BFSApp is the breadth-first-search application: a fixed power-law graph
// (com-Orkut proxy), partitioned by contiguous vertex ranges across tasks
// — the "uneven graph partitioning" the paper names as BFS's inherent
// imbalance. Each task owns its partition's adjacency slice and its slice
// of the distance/parent arrays; distance updates land in other
// partitions' slices following the real traversal's cross-partition edge
// matrix. Each task instance is a full traversal from a new source,
// computed for real by internal/sparse.
type BFSApp struct {
	cfg    BFSConfig
	graph  *sparse.CSR
	parts  [][2]int
	levels []int       // per instance, for cross-policy verification
	edges  [][]int64   // [instance][srcPartition] relaxations
	matrix [][][]int64 // [instance][src][dst] relaxations

	adj  []*hm.Object // per-partition adjacency (fixed)
	dist []*hm.Object // per-partition distance/parent slices (fixed)
}

// NewBFS builds the application: generates the graph, runs every
// instance's real traversal, and keeps the per-partition counts.
//
// The graph is drawn without values (BFS is unweighted; RMAT draws them
// after every edge, so the graph is the same). Each traversal keeps only
// a visited bitmap, and the per-partition counts are computed once per
// distinct reached set: they are integer sums over the reached vertices'
// out-edges, which no traversal order changes, so an instance reaching
// the set the previous one reached shares its counts.
func NewBFS(cfg BFSConfig) (*BFSApp, error) {
	cfg = cfg.withDefaults()
	// No vertex relabeling: contiguous-range partitioning of a graph
	// whose hubs cluster at low ids is exactly the uneven partitioning of
	// §7.2.
	g := sparse.RMAT(sparse.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed, Unweighted: true})
	// Partial balance (edges + vertices mixed): the hub partitions stay
	// heavier — §7.2's uneven-partitioning imbalance — without the
	// pathological skew of pure row partitioning.
	parts := sparse.WeightedBins(g, cfg.Tasks, 2*float64(cfg.EdgeFactor))
	app := &BFSApp{cfg: cfg, graph: g, parts: parts}
	// Directed power-law graphs are full of sink vertices; like Graph500,
	// only sources that actually reach the giant component are used: a
	// traversal counts when it relaxes at least a tenth of the edges.
	var total int64
	for _, e := range sparse.BinNNZ(g, app.parts) {
		total += int64(e)
	}
	tr := sparse.NewTraverser(g, parts)
	src := 0
	for i := 0; i < cfg.Instances; i++ {
		for {
			levels, traversed, err := tr.BFS(src % g.Rows)
			if err != nil {
				return nil, err
			}
			src++
			if traversed*10 >= total {
				app.levels = append(app.levels, levels)
				break
			}
		}
		edges, matrix := tr.Counts()
		app.edges = append(app.edges, edges)
		app.matrix = append(app.matrix, matrix)
	}
	return app, nil
}

// Name implements task.App.
func (b *BFSApp) Name() string { return "BFS" }

// NumInstances implements task.App.
func (b *BFSApp) NumInstances() int { return b.cfg.Instances }

// Levels returns the eccentricities found per instance — identical across
// placement policies.
func (b *BFSApp) Levels() []int { return b.levels }

func (b *BFSApp) taskName(t int) string { return fmt.Sprintf("part%02d", t) }

// Setup implements task.App.
func (b *BFSApp) Setup(mem *hm.Memory) error {
	b.adj = make([]*hm.Object, b.cfg.Tasks)
	b.dist = make([]*hm.Object, b.cfg.Tasks)
	for t, pr := range b.parts {
		edges := b.graph.RowPtr[pr[1]] - b.graph.RowPtr[pr[0]]
		bytes := uint64(edges)*4 + uint64(pr[1]-pr[0]+1)*4
		if bytes == 0 {
			bytes = mem.Spec.PageSize
		}
		o, err := mem.Alloc(fmt.Sprintf("bfs/adj%02d", t), b.taskName(t), bytes, hm.PM)
		if err != nil {
			return err
		}
		b.adj[t] = o
		// dist + parent + visited bitmap + frontier: 16 bytes/vertex of
		// the partition.
		db := uint64(pr[1]-pr[0]) * 16
		if db == 0 {
			db = mem.Spec.PageSize
		}
		d, err := mem.Alloc(fmt.Sprintf("bfs/dist%02d", t), b.taskName(t), db, hm.PM)
		if err != nil {
			return err
		}
		b.dist[t] = d
	}
	return nil
}

// Instance implements task.App.
func (b *BFSApp) Instance(i int, mem *hm.Memory) ([]hm.TaskWork, error) {
	works := make([]hm.TaskWork, b.cfg.Tasks)
	adjScan := access.Pattern{Kind: access.Stream, ElemSize: 4}
	distScatter := access.Pattern{Kind: access.Random, ElemSize: 8, Skew: 0.3}
	for t := 0; t < b.cfg.Tasks; t++ {
		e := float64(b.edges[i][t]) * b.cfg.Rep
		ph := hm.Phase{
			Name:           "traverse",
			ComputeSeconds: 1.5e-9 * e,
			Accesses: []hm.PhaseAccess{
				// Scan the adjacency of frontier vertices.
				{Obj: b.adj[t], Pattern: adjScan, ProgramAccesses: e},
			},
		}
		// Distance checks/updates land where the neighbours live.
		for dst := 0; dst < b.cfg.Tasks; dst++ {
			de := float64(b.matrix[i][t][dst]) * b.cfg.Rep
			if de <= 0 {
				continue
			}
			ph.Accesses = append(ph.Accesses, hm.PhaseAccess{
				Obj:             b.dist[dst],
				Pattern:         distScatter,
				ProgramAccesses: de,
				WriteFrac:       0.3,
				Seed:            int64(5 + dst),
			})
		}
		works[t] = hm.TaskWork{Name: b.taskName(t), Phases: []hm.Phase{ph}}
	}
	return works, nil
}

// IR implements IRApp: the relaxation loop (expected classification:
// Stream for the adjacency, Random for the distance array — Table 1's
// "Stream, Random" for BFS).
func (b *BFSApp) IR() ir.Program {
	return ir.Program{
		Name: "BFS",
		Kernels: []ir.Kernel{{
			Name: "relax",
			Body: []ir.Stmt{ir.Loop{Var: "p", Bound: "edges", Body: []ir.Stmt{
				// dist[adj[p]] = level — scatter through the adjacency.
				ir.Assign{
					LHS: ir.Ref{Array: "dist", ElemSize: 4, Index: ir.IndirectIx("adj", 4, ir.Ix("p"))},
					RHS: []ir.Ref{},
				},
			}}},
		}},
	}
}

var _ task.App = (*BFSApp)(nil)
var _ IRApp = (*BFSApp)(nil)
