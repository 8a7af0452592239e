// Package corpus generates the training corpus for Merchandiser's
// correlation function f(·) (Section 5.1).
//
// The paper extracts 281 code regions from the NAS Parallel Benchmarks and
// SPEC CPU2006 FP with CERE, runs each region on PM only, DRAM only and
// under 10 hybrid data placements, and inverts Equation 2 to obtain the
// target value of f(·) for each (workload characteristics, r_dram) pair.
//
// Neither CERE nor the benchmark suites are available here, so the corpus
// is a parameterized generator of synthetic code regions modeled on the
// NAS kernels' pattern mixes (CG: stream+gather, MG: stencil, FT: strided,
// EP: compute-bound, IS: scatter, BT/SP/LU: stream+stencil solves) plus
// SPEC-FP-like blends. The generator's purpose is identical to CERE's in
// the paper: cover the (pattern mix × working set × compute intensity ×
// r_dram) space the model must interpolate over.
package corpus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"merchandiser/internal/access"
	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
	"merchandiser/internal/pmc"
)

// ObjectSpec sizes one data object of a region as bytes = BytesPerUnit ×
// scale (scale is the region's input-size knob).
type ObjectSpec struct {
	Name         string
	BytesPerUnit float64
}

// AccessSpec is one access stream of a region.
type AccessSpec struct {
	Object          string
	Pattern         access.Pattern
	AccessesPerUnit float64
	WriteFrac       float64
}

// Region is one synthetic code region (a CERE codelet in the paper).
type Region struct {
	Name           string
	Objects        []ObjectSpec
	Accesses       []AccessSpec
	ComputePerUnit float64 // seconds of compute per unit of scale
}

// IsRegular reports whether the region's dominant traffic comes from
// regular (prefetchable) patterns — Figure 7 splits applications this way.
func (r Region) IsRegular() bool {
	var reg, irr float64
	for _, a := range r.Accesses {
		if a.Pattern.IsRegular() {
			reg += a.AccessesPerUnit
		} else {
			irr += a.AccessesPerUnit
		}
	}
	return reg >= irr
}

// Instantiate builds the task work for the region at the given input
// scale, allocating objects on tier in mem.
func (r Region) Instantiate(mem *hm.Memory, scale float64, tier hm.TierID, seed int64) (hm.TaskWork, error) {
	objs := map[string]*hm.Object{}
	for _, os := range r.Objects {
		bytes := uint64(os.BytesPerUnit * scale)
		if bytes < mem.Spec.PageSize {
			bytes = mem.Spec.PageSize
		}
		o, err := mem.Alloc(r.Name+"/"+os.Name, r.Name, bytes, tier)
		if err != nil {
			return hm.TaskWork{}, err
		}
		objs[os.Name] = o
	}
	ph := hm.Phase{Name: "region", ComputeSeconds: r.ComputePerUnit * scale}
	for i, a := range r.Accesses {
		o, ok := objs[a.Object]
		if !ok {
			return hm.TaskWork{}, fmt.Errorf("corpus: region %s access %d names unknown object %q", r.Name, i, a.Object)
		}
		ph.Accesses = append(ph.Accesses, hm.PhaseAccess{
			Obj:             o,
			Pattern:         a.Pattern,
			ProgramAccesses: a.AccessesPerUnit * scale,
			WriteFrac:       a.WriteFrac,
			Seed:            seed + int64(i),
		})
	}
	return hm.TaskWork{Name: r.Name, Phases: []hm.Phase{ph}}, nil
}

// family is a generator template for one benchmark-like region family.
type family struct {
	name string
	gen  func(r *rand.Rand, idx int) Region
}

// StandardCorpus generates n code regions (the paper uses 281) from the
// NAS/SPEC-like families, deterministically from seed.
func StandardCorpus(n int, seed int64) []Region {
	if n <= 0 {
		n = 281
	}
	rng := rand.New(rand.NewSource(seed))
	families := regionFamilies()
	out := make([]Region, 0, n)
	for i := 0; i < n; i++ {
		f := families[i%len(families)]
		reg := f.gen(rng, i)
		reg.Name = fmt.Sprintf("%s.%03d", f.name, i)
		out = append(out, reg)
	}
	return out
}

func regionFamilies() []family {
	const mb = 1 << 20
	u := func(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }
	return []family{
		{name: "cg", gen: func(r *rand.Rand, idx int) Region {
			// Sparse matvec: streamed row data + gathered vector.
			return Region{
				Objects: []ObjectSpec{
					{Name: "vals", BytesPerUnit: u(r, 2, 6) * mb},
					{Name: "x", BytesPerUnit: u(r, 1, 4) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "vals", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 2e6, 6e6)},
					{Object: "x", Pattern: access.Pattern{Kind: access.Random, ElemSize: 8, Skew: u(r, 0, 0.8)}, AccessesPerUnit: u(r, 1e6, 4e6)},
				},
				ComputePerUnit: u(r, 0.01, 0.05),
			}
		}},
		{name: "mg", gen: func(r *rand.Rand, idx int) Region {
			return Region{
				Objects: []ObjectSpec{{Name: "grid", BytesPerUnit: u(r, 4, 16) * mb}},
				Accesses: []AccessSpec{
					{Object: "grid", Pattern: access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 7}, AccessesPerUnit: u(r, 4e6, 1.2e7), WriteFrac: 0.3},
				},
				ComputePerUnit: u(r, 0.02, 0.08),
			}
		}},
		{name: "ft", gen: func(r *rand.Rand, idx int) Region {
			stride := 1 << (4 + r.Intn(5)) // 16..256 elements
			return Region{
				Objects: []ObjectSpec{{Name: "u", BytesPerUnit: u(r, 4, 12) * mb}},
				Accesses: []AccessSpec{
					{Object: "u", Pattern: access.Pattern{Kind: access.Strided, ElemSize: 8, StrideBytes: stride * 8}, AccessesPerUnit: u(r, 2e6, 8e6), WriteFrac: 0.4},
				},
				ComputePerUnit: u(r, 0.03, 0.1),
			}
		}},
		{name: "ep", gen: func(r *rand.Rand, idx int) Region {
			// Embarrassingly parallel: compute-bound, tiny memory traffic.
			return Region{
				Objects: []ObjectSpec{{Name: "acc", BytesPerUnit: u(r, 0.5, 2) * mb}},
				Accesses: []AccessSpec{
					{Object: "acc", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 1e5, 5e5), WriteFrac: 0.5},
				},
				ComputePerUnit: u(r, 0.2, 0.5),
			}
		}},
		{name: "is", gen: func(r *rand.Rand, idx int) Region {
			// Integer sort: scatter-heavy.
			return Region{
				Objects: []ObjectSpec{
					{Name: "keys", BytesPerUnit: u(r, 2, 6) * mb},
					{Name: "buckets", BytesPerUnit: u(r, 4, 12) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "keys", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 4}, AccessesPerUnit: u(r, 2e6, 6e6)},
					{Object: "buckets", Pattern: access.Pattern{Kind: access.Random, ElemSize: 4, Skew: u(r, 0, 0.4)}, AccessesPerUnit: u(r, 2e6, 6e6), WriteFrac: 0.9},
				},
				ComputePerUnit: u(r, 0.005, 0.03),
			}
		}},
		{name: "bt", gen: func(r *rand.Rand, idx int) Region {
			// Block tridiagonal solve: streams + stencil sweeps.
			return Region{
				Objects: []ObjectSpec{
					{Name: "lhs", BytesPerUnit: u(r, 3, 10) * mb},
					{Name: "rhs", BytesPerUnit: u(r, 2, 8) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "lhs", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 3e6, 9e6), WriteFrac: 0.2},
					{Object: "rhs", Pattern: access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 5}, AccessesPerUnit: u(r, 2e6, 6e6), WriteFrac: 0.4},
				},
				ComputePerUnit: u(r, 0.05, 0.15),
			}
		}},
		{name: "lu", gen: func(r *rand.Rand, idx int) Region {
			// LU decomposition blocks: strided panel updates over a dense
			// matrix plus streamed pivot rows, write-heavy.
			stride := 1 << (5 + r.Intn(4)) // 32..256 elements (the row length)
			return Region{
				Objects: []ObjectSpec{{Name: "mat", BytesPerUnit: u(r, 4, 14) * mb}},
				Accesses: []AccessSpec{
					{Object: "mat", Pattern: access.Pattern{Kind: access.Strided, ElemSize: 8, StrideBytes: stride * 8}, AccessesPerUnit: u(r, 2e6, 7e6), WriteFrac: 0.5},
					{Object: "mat", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 1e6, 4e6)},
				},
				ComputePerUnit: u(r, 0.04, 0.12),
			}
		}},
		{name: "sp", gen: func(r *rand.Rand, idx int) Region {
			// Scalar pentadiagonal solve: stencil sweeps in alternating
			// directions with moderate writes.
			return Region{
				Objects: []ObjectSpec{
					{Name: "u", BytesPerUnit: u(r, 3, 10) * mb},
					{Name: "rhs", BytesPerUnit: u(r, 2, 6) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "u", Pattern: access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 5}, AccessesPerUnit: u(r, 3e6, 9e6), WriteFrac: 0.4},
					{Object: "rhs", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 1e6, 3e6), WriteFrac: 0.2},
				},
				ComputePerUnit: u(r, 0.03, 0.09),
			}
		}},
		{name: "amr", gen: func(r *rand.Rand, idx int) Region {
			// Adaptive-mesh kernels: an input-dependent stencil (the mesh
			// changes across inputs) mixed with gathers into shared state.
			return Region{
				Objects: []ObjectSpec{
					{Name: "mesh", BytesPerUnit: u(r, 3, 12) * mb},
					{Name: "state", BytesPerUnit: u(r, 2, 8) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "mesh", Pattern: access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 7, InputDependent: true}, AccessesPerUnit: u(r, 2e6, 6e6), WriteFrac: 0.3},
					{Object: "state", Pattern: access.Pattern{Kind: access.Random, ElemSize: 8, Skew: u(r, 0.2, 0.9)}, AccessesPerUnit: u(r, 1e6, 4e6)},
				},
				ComputePerUnit: u(r, 0.02, 0.08),
			}
		}},
		{name: "specfp", gen: func(r *rand.Rand, idx int) Region {
			// SPEC-FP blend: every pattern with random weights.
			skew := u(r, 0, 1.0)
			return Region{
				Objects: []ObjectSpec{
					{Name: "a", BytesPerUnit: u(r, 1, 8) * mb},
					{Name: "b", BytesPerUnit: u(r, 1, 8) * mb},
				},
				Accesses: []AccessSpec{
					{Object: "a", Pattern: access.Pattern{Kind: access.Stream, ElemSize: 8}, AccessesPerUnit: u(r, 5e5, 5e6), WriteFrac: u(r, 0, 0.5)},
					{Object: "b", Pattern: access.Pattern{Kind: access.Random, ElemSize: 8, Skew: skew}, AccessesPerUnit: u(r, 5e5, 5e6)},
				},
				ComputePerUnit: u(r, 0.01, 0.2),
			}
		}},
	}
}

// Sample is one training example for f(·): the region's workload
// characteristics (collected with a seed input, per the paper), the DRAM
// access ratio of a placement, and the measured value of f.
type Sample struct {
	Region  string
	Regular bool
	Events  pmc.Counters
	RDram   float64
	F       float64
	TPm     float64
	TDram   float64
	THybrid float64
}

// BuildConfig tunes training-data generation.
type BuildConfig struct {
	// Placements is the number of hybrid placements per region (10 in the
	// paper).
	Placements int
	// StepSec for the simulation runs.
	StepSec float64
	Seed    int64
	// Workers is the number of regions simulated concurrently; 0 uses
	// runtime.NumCPU(). Every region derives its seeds from its index, so
	// Build's output is identical for any worker count.
	Workers int
	// PaceBound caps how many regions simulation may run ahead of the
	// stream's consumer: at most PaceBound regions are claimed but not yet
	// consumed at any instant (the pace-car bound of the streaming
	// pipeline). 0 uses max(2×Workers, 8). Pacing affects scheduling only,
	// never the emitted samples.
	PaceBound int
	// Gate, when non-nil, is acquired around each region simulation. The
	// pipelined trainer uses it to share one worker-slot pool across
	// overlapping pipeline stages, so "Workers" bounds the whole pipeline
	// rather than each stage separately. Gate must return a release
	// function on success; an error (the gate observed cancellation)
	// stops the claiming worker.
	Gate func(ctx context.Context) (release func(), err error)
	// Obs, when non-nil, receives the volatile corpus wall timer
	// (corpus.stream_seconds: first claim to last emitted batch) used by
	// the stage-overlap report.
	Obs *obs.Registry
}

// trainScale and seedScale are the input scales for target generation
// and for PMC collection; the paper deliberately uses different inputs
// for the two.
const (
	trainScale = 1
	seedScale  = 0.6
)

func (c BuildConfig) withDefaults() BuildConfig {
	if c.Placements <= 0 {
		c.Placements = 10
	}
	if c.StepSec <= 0 {
		c.StepSec = 0.002
	}
	return c
}

// Build measures every region under PM-only, DRAM-only and cfg.Placements
// hybrid placements, inverting Equation 2 into f targets. spec is the
// heterogeneous platform being trained for (Merchandiser retrains f when
// ported to a new HM system — the "Extensibility" paragraph of §5.3).
//
// Regions are simulated by a pool of cfg.Workers goroutines, each owning a
// private Memory/Engine instance. Samples are reassembled in region order
// and every region keeps its index-derived seed, so the result is
// byte-identical regardless of the worker count. Per-region failures are
// all surfaced, joined in region order.
//
// Cancellation: once ctx is done, workers stop claiming new regions and
// in-flight regions abort at the next engine tick; Build then returns an
// error satisfying errors.Is(err, context.Canceled) with no goroutine
// left behind. A nil ctx behaves like context.Background().
func Build(ctx context.Context, regions []Region, spec hm.SystemSpec, cfg BuildConfig) ([]Sample, error) {
	stream := BuildStream(ctx, regions, spec, cfg)
	var out []Sample
	for batch := range stream.C {
		out = append(out, batch.Samples...)
	}
	if err := stream.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// RegionBatch is the ordered output unit of BuildStream: every sample the
// named region contributed to the corpus (possibly none — regions whose
// placement sensitivity is below the simulation's quantization are
// skipped, but their index still appears so consumers see a gapless
// sequence).
type RegionBatch struct {
	// Index is the region's position; batches arrive strictly in index
	// order, 0, 1, 2, ... with no gaps.
	Index   int
	Region  string
	Samples []Sample
}

// Stream is a streaming corpus build in flight. Receive batches from C
// until it closes, then call Wait for the joined error. Abandoning C
// without cancelling the build's context would block the producers; to
// stop early, cancel the context and then drain C (it closes promptly).
type Stream struct {
	// C delivers per-region sample batches strictly in region-index
	// order. It is unbuffered beyond the pace bound: producers stall
	// rather than run more than PaceBound regions ahead of the receiver.
	C    <-chan RegionBatch
	wait func() error
}

// Wait blocks until every producer goroutine has exited and returns the
// build's outcome: nil, the per-region errors joined in region order, or
// a cancellation error satisfying errors.Is(err, context.Canceled). It
// must be called after C closes (or after cancelling the context).
func (s *Stream) Wait() error { return s.wait() }

// BuildStream is the streaming form of Build: regions are simulated by a
// pool of cfg.Workers goroutines and completed per-region batches are
// emitted in region-index order as they become available, instead of
// after a global barrier. Each region keeps its index-derived seed, so
// the concatenated batches are byte-identical to Build's output for any
// worker count and any consumer pace.
//
// The pace-car discipline: a token pool of cfg.PaceBound permits bounds
// how far simulation may run ahead of the consumer. A worker takes a
// token before claiming a region; the token returns only after the
// region's batch has been received from C. Claimed-but-unconsumed
// regions therefore never exceed PaceBound, keeping memory bounded and
// the producers paced to the downstream stage.
//
// Cancellation: once ctx is done, workers stop claiming regions,
// in-flight regions abort at the next engine tick, C closes promptly
// (possibly mid-sequence), and Wait reports the cancellation with no
// goroutine left behind.
func BuildStream(ctx context.Context, regions []Region, spec hm.SystemSpec, cfg BuildConfig) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(regions) {
		workers = len(regions)
	}
	if workers < 1 {
		workers = 1
	}
	pace := cfg.PaceBound
	if pace <= 0 {
		pace = 2 * workers
		if pace < 8 {
			pace = 8
		}
	}
	if workers > pace {
		workers = pace // extra workers could never hold a permit anyway
	}

	n := len(regions)
	perRegion := make([][]Sample, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	tokens := make(chan struct{}, pace)
	for i := 0; i < pace; i++ {
		tokens <- struct{}{}
	}
	out := make(chan RegionBatch)
	var wg sync.WaitGroup
	var next atomic.Int64

	stopWall := func() {}
	if cfg.Obs != nil {
		stopWall = cfg.Obs.WallTimer("corpus.stream_seconds").Start()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tokens:
				}
				ri := int(next.Add(1)) - 1
				if ri >= n {
					tokens <- struct{}{} // hand the permit to a sibling so it can exit too
					return
				}
				if cfg.Gate != nil {
					release, err := cfg.Gate(ctx)
					if err != nil {
						return
					}
					buildInto(ctx, regions, spec, cfg, ri, perRegion, errs)
					release()
				} else {
					buildInto(ctx, regions, spec, cfg, ri, perRegion, errs)
				}
				close(ready[ri])
			}
		}()
	}

	// The sequencer restores region order: it forwards batch i only after
	// batches 0..i-1 have been received, and returns each pace token as
	// its batch is consumed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		defer stopWall()
		for i := 0; i < n; i++ {
			select {
			case <-ctx.Done():
				return
			case <-ready[i]:
			}
			select {
			case <-ctx.Done():
				return
			case out <- RegionBatch{Index: i, Region: regions[i].Name, Samples: perRegion[i]}:
				tokens <- struct{}{}
			}
		}
	}()

	wait := func() error {
		wg.Wait()
		if err := merr.FromContext(ctx, "corpus: build canceled"); err != nil {
			return err
		}
		return errors.Join(errs...)
	}
	return &Stream{C: out, wait: wait}
}

// buildInto simulates one region and records its samples or error.
func buildInto(ctx context.Context, regions []Region, spec hm.SystemSpec, cfg BuildConfig, ri int, perRegion [][]Sample, errs []error) {
	samples, err := buildRegion(ctx, regions[ri], spec, cfg, int64(ri))
	if err != nil {
		errs[ri] = fmt.Errorf("corpus: region %s: %w", regions[ri].Name, err)
		return
	}
	perRegion[ri] = samples
}

// runHomogeneous runs the region alone on a tier-homogeneous system and
// returns its counters. newMemory builds the run's Memory.
func runHomogeneous(ctx context.Context, reg Region, spec hm.SystemSpec, newMemory func(hm.SystemSpec) *hm.Memory, scale float64, tier hm.TierID, step float64, seed int64) (hm.TaskCounters, error) {
	mem := newMemory(hm.HomogeneousSpec(spec, tier))
	tw, err := reg.Instantiate(mem, scale, hm.PM, seed)
	if err != nil {
		return hm.TaskCounters{}, err
	}
	eng := &hm.Engine{Mem: mem, StepSec: step}
	res, err := eng.Run(ctx, []hm.TaskWork{tw})
	if err != nil {
		return hm.TaskCounters{}, err
	}
	return res.Counters[0], nil
}

// runPlacement runs the region with dramFrac of each object's pages in
// DRAM and returns the counters. newMemory builds the run's Memory.
func runPlacement(ctx context.Context, reg Region, spec hm.SystemSpec, newMemory func(hm.SystemSpec) *hm.Memory, scale, dramFrac float64, step float64, seed int64) (hm.TaskCounters, error) {
	// Give the hybrid run enough DRAM headroom for any fraction.
	pspec := spec
	pspec.Tiers[hm.DRAM].CapacityBytes = spec.Tiers[hm.PM].CapacityBytes
	mem := newMemory(pspec)
	tw, err := reg.Instantiate(mem, scale, hm.PM, seed)
	if err != nil {
		return hm.TaskCounters{}, err
	}
	for _, o := range mem.Objects() {
		n := o.NumPages()
		target := int(dramFrac * float64(n))
		// Interleave DRAM pages through the object so uniform access
		// patterns see the intended ratio.
		if target > 0 {
			stride := float64(n) / float64(target)
			for k := 0; k < target; k++ {
				p := int(float64(k) * stride)
				if p >= n {
					p = n - 1
				}
				if err := mem.Migrate(o, p, hm.DRAM); err != nil {
					return hm.TaskCounters{}, err
				}
			}
		}
	}
	eng := &hm.Engine{Mem: mem, StepSec: step}
	res, err := eng.Run(ctx, []hm.TaskWork{tw})
	if err != nil {
		return hm.TaskCounters{}, err
	}
	return res.Counters[0], nil
}

func buildRegion(ctx context.Context, reg Region, spec hm.SystemSpec, cfg BuildConfig, regionSeed int64) ([]Sample, error) {
	seed := cfg.Seed + regionSeed*101
	// Each run builds its own Memory for the same objects and seeds, one
	// after another on this goroutine, so they share the first one's
	// page-weight memo.
	var first *hm.Memory
	newMemory := func(runSpec hm.SystemSpec) *hm.Memory {
		mem := hm.NewMemory(runSpec)
		if first == nil {
			first = mem
		} else {
			mem.SharePageWeights(first)
		}
		return mem
	}

	pmCtr, err := runHomogeneous(ctx, reg, spec, newMemory, trainScale, hm.PM, cfg.StepSec, seed)
	if err != nil {
		return nil, err
	}
	dramCtr, err := runHomogeneous(ctx, reg, spec, newMemory, trainScale, hm.DRAM, cfg.StepSec, seed)
	if err != nil {
		return nil, err
	}
	tPm, tDram := pmCtr.FinishTime, dramCtr.FinishTime
	// Skip regions whose placement sensitivity is below the simulation's
	// time quantization: their f targets would be pure noise. (The paper's
	// measured equivalents are regions whose runtime barely depends on
	// placement — they carry no signal for f either.)
	if tPm-tDram < 4*cfg.StepSec || tPm < tDram*1.02 {
		return nil, nil
	}

	// Workload characteristics come from a *seed input* run on PM only —
	// a different input than the one targets are generated with (§5.1).
	seedCtr, err := runHomogeneous(ctx, reg, spec, newMemory, seedScale, hm.PM, cfg.StepSec, seed+7)
	if err != nil {
		return nil, err
	}
	events := pmc.Collect(spec, seedCtr)

	var out []Sample
	for p := 0; p < cfg.Placements; p++ {
		frac := (float64(p) + 0.5) / float64(cfg.Placements)
		ctr, err := runPlacement(ctx, reg, spec, newMemory, trainScale, frac, cfg.StepSec, seed)
		if err != nil {
			return nil, err
		}
		r := ctr.RDRAM()
		if r > 0.999 {
			continue // f undefined at the DRAM-only endpoint
		}
		f := (ctr.FinishTime - tDram*r) / (tPm * (1 - r))
		out = append(out, Sample{
			Region:  reg.Name,
			Regular: reg.IsRegular(),
			Events:  events,
			RDram:   r,
			F:       f,
			TPm:     tPm,
			TDram:   tDram,
			THybrid: ctr.FinishTime,
		})
	}
	return out, nil
}

// FeatureNames returns the model-input feature names: the chosen hardware
// events followed by the DRAM-access ratio (Equation 2 feeds both into
// f(·)).
func FeatureNames(events []string) []string {
	out := append([]string(nil), events...)
	return append(out, "R_DRAM")
}

// Matrix converts samples to a feature matrix/target vector over the given
// event subset.
func Matrix(samples []Sample, events []string) (X [][]float64, y []float64) {
	for _, s := range samples {
		row := s.Events.Vector(events)
		row = append(row, s.RDram)
		X = append(X, row)
		y = append(y, s.F)
	}
	return X, y
}
