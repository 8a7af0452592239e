package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"merchandiser/internal/corpus"
	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
	"merchandiser/internal/pmc"
	"merchandiser/internal/stats"
)

// CorrelationFunc is the trained f(PMCs, r_dram) of Equation 2.
type CorrelationFunc struct {
	Model  ml.Regressor
	Events []string // hardware events used as workload characteristics

	// index is the model's split index, nil unless the model is a tree
	// ensemble: built on first use, once per CorrelationFunc, and shared
	// by every planner that uses it.
	indexOnce sync.Once
	index     *ml.SplitIndex
}

// vecPool recycles the feature vectors Eval assembles. The compiled
// model predicts allocation-free, so the vector build must not allocate
// per call either.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// Eval returns f for one task's workload characteristics and a DRAM
// access ratio.
func (c *CorrelationFunc) Eval(ev pmc.Counters, rdram float64) float64 {
	buf := vecPool.Get().(*[]float64)
	x := c.AppendVector((*buf)[:0], ev, rdram)
	f := clampF(c.Model.Predict(x))
	*buf = x
	vecPool.Put(buf)
	return f
}

// AppendVector appends the model's feature vector for (ev, rdram) onto
// dst: the selected events in order, then r_dram in the last slot, the
// column layout corpus.Matrix trains on.
func (c *CorrelationFunc) AppendVector(dst []float64, ev pmc.Counters, rdram float64) []float64 {
	return append(ev.VectorInto(dst, c.Events), rdram)
}

// splitIndex returns the model's split index, building it on first use;
// nil when the model is not a tree ensemble.
func (c *CorrelationFunc) splitIndex() *ml.SplitIndex {
	c.indexOnce.Do(func() { c.index, _ = ml.NewSplitIndex(c.Model) })
	return c.index
}

// RDramSplits returns the sorted, distinct thresholds at which the
// model splits its r_dram column (index len(Events)), or ok=false when
// the model is not a tree ensemble. Between two consecutive thresholds
// f does not depend on r_dram: Eval returns the same bits for every
// ratio with the same sort.SearchFloat64s index, given the same events.
// The slice comes from the model's split index and is read-only.
func (c *CorrelationFunc) RDramSplits() (thresholds []float64, ok bool) {
	ix := c.splitIndex()
	if ix == nil {
		return nil, false
	}
	return ix.Thresholds(len(c.Events)), true
}

// BindWords is the length of the bit state BindEvents fills and
// EvalBound moves; 0 when RDramSplits reports no thresholds (ok=false).
func (c *CorrelationFunc) BindWords() int {
	if ix := c.splitIndex(); ix != nil {
		return ix.Words()
	}
	return 0
}

// BindEvents records in state (BindWords() long) the outcome of every
// split the model makes on one task's events, through the split index:
// what stays fixed while a planner varies the task's r_dram. The state
// is then at r_dram interval 0. buf is scratch for the feature vector;
// the grown buffer is returned for reuse. Only for models RDramSplits
// reports thresholds for.
func (c *CorrelationFunc) BindEvents(state []uint64, ev pmc.Counters, buf []float64) []float64 {
	x := c.AppendVector(buf[:0], ev, 0)
	c.splitIndex().Bind(state, x, len(c.Events))
	return x
}

// EvalBound moves a state BindEvents made from events ev, and earlier
// calls moved to r_dram interval from, on to interval k >= from of
// RDramSplits, and returns Eval(ev, r) for any ratio r in interval k —
// sort.SearchFloat64s(thresholds, r) == k — bit for bit. Each call
// counts as one model prediction, and none allocates. (See
// ml.SplitIndex.Predict.)
func (c *CorrelationFunc) EvalBound(state []uint64, from, k int) float64 {
	return clampF(c.splitIndex().Predict(state, len(c.Events), from, k))
}

// clampF keeps f in a physically meaningful band (0 would mean PM
// accesses are free, large values would break the bound rationale of
// Equation 2).
func clampF(f float64) float64 {
	if f < 0.05 {
		f = 0.05
	}
	if f > 2 {
		f = 2
	}
	return f
}

// EvalBatch returns f for many (counters, ratio) pairs: one flat matrix
// of feature vectors scored by ml.PredictBatch, which for a tree
// ensemble splits the rows into chunks on concurrent goroutines and
// walks each row as Predict does. EvalBatch(evs, rs)[i] equals
// Eval(evs[i], rs[i]) exactly.
func (c *CorrelationFunc) EvalBatch(evs []pmc.Counters, rdram []float64) []float64 {
	d := len(c.Events) + 1
	flat := make([]float64, 0, len(evs)*d)
	X := make([][]float64, len(evs))
	for i := range evs {
		start := len(flat)
		flat = c.AppendVector(flat, evs[i], rdram[i])
		X[i] = flat[start:len(flat):len(flat)]
	}
	out := ml.PredictBatch(c.Model, X)
	for i, f := range out {
		out[i] = clampF(f)
	}
	return out
}

// TrainResult reports a correlation-function training run.
type TrainResult struct {
	Corr    *CorrelationFunc
	TrainR2 float64
	TestR2  float64
	Samples int
}

// TrainCorrelation fits the correlation function on corpus samples with a
// 70/30 split (the paper's protocol). newModel supplies the statistical
// model (Table 3 selects GBR). Cancellation via ctx aborts within one
// boosting stage for context-aware models; the result is identical to an
// uncancellable fit while ctx stays live.
func TrainCorrelation(ctx context.Context, samples []corpus.Sample, events []string, newModel func() ml.Regressor, seed int64) (*TrainResult, error) {
	if len(samples) < 10 {
		return nil, merr.Errorf(merr.ErrUntrained, "model: only %d samples; need at least 10", len(samples))
	}
	X, y := corpus.Matrix(samples, events)
	Xtr, ytr, Xte, yte, err := ml.TrainTestSplit(X, y, 0.7, seed)
	if err != nil {
		return nil, err
	}
	m := newModel()
	if err := ml.Fit(ctx, m, Xtr, ytr); err != nil {
		return nil, err
	}
	trainR2, err := ml.R2Score(m, Xtr, ytr)
	if err != nil {
		return nil, err
	}
	testR2, err := ml.R2Score(m, Xte, yte)
	if err != nil {
		return nil, err
	}
	return &TrainResult{
		Corr:    &CorrelationFunc{Model: m, Events: events},
		TrainR2: trainR2,
		TestR2:  testR2,
		Samples: len(samples),
	}, nil
}

// PredictHybrid is Equation 2:
//
//	T_hybrid = T_pm_only·(1−r_dram)·f(PMCs, r_dram) + T_dram_only·r_dram
//
// clamped to the [T_dram_only, T_pm_only] bounds the paper's rationale (1)
// requires.
func PredictHybrid(tPm, tDram, rdram, f float64) float64 {
	if rdram < 0 {
		rdram = 0
	}
	if rdram > 1 {
		rdram = 1
	}
	t := tPm*(1-rdram)*f + tDram*rdram
	if t < tDram {
		t = tDram
	}
	if t > tPm {
		t = tPm
	}
	return t
}

// PerfModel bundles the correlation function with Equation 2 — the Model
// input of Algorithm 1.
type PerfModel struct {
	Corr *CorrelationFunc
}

// Predict returns the predicted execution time for a task whose
// homogeneous-memory times and workload characteristics are known, at a
// given DRAM access ratio.
func (m *PerfModel) Predict(tPm, tDram float64, ev pmc.Counters, rdram float64) float64 {
	f := 1.0
	if m.Corr != nil {
		f = m.Corr.Eval(ev, rdram)
	}
	return PredictHybrid(tPm, tDram, rdram, f)
}

// PredictBatch evaluates Equation 2 for many (task, ratio) tuples,
// scoring f for all of them in one EvalBatch call. PredictBatch(...)[i]
// is bit-identical to the corresponding pairwise Predict call.
func (m *PerfModel) PredictBatch(tPm, tDram []float64, evs []pmc.Counters, rdram []float64) []float64 {
	out := make([]float64, len(rdram))
	if m.Corr == nil {
		for i := range out {
			out[i] = PredictHybrid(tPm[i], tDram[i], rdram[i], 1)
		}
		return out
	}
	fs := m.Corr.EvalBatch(evs, rdram)
	for i := range out {
		out[i] = PredictHybrid(tPm[i], tDram[i], rdram[i], fs[i])
	}
	return out
}

// BasicBlock is one input-independent basic block with its per-execution
// times measured offline on each homogeneous memory (Section 5.2).
type BasicBlock struct {
	Name      string
	TimePM    float64 // seconds per execution on PM only
	TimeDRAM  float64 // seconds per execution on DRAM only
	BaseCount float64 // executions observed with the base input
}

// HomogeneousPredictor predicts T_new_pm_only and T_new_dram_only for a
// new input by scaling each basic block's base-input execution count by
// the similarity between the base and new input-size vectors.
type HomogeneousPredictor struct {
	Blocks    []BasicBlock
	BaseSizes []float64 // sizes of the task's data objects under the base input
}

// scaleFactor converts the base-input block counts to the new input:
// magnitude ratio of the size vectors times their cosine similarity
// (identical shapes scale purely by magnitude; shape drift discounts the
// estimate, per Section 5.2).
func (h *HomogeneousPredictor) scaleFactor(newSizes []float64) (float64, error) {
	if len(newSizes) != len(h.BaseSizes) {
		return 0, fmt.Errorf("model: new input has %d objects, base has %d", len(newSizes), len(h.BaseSizes))
	}
	cos, err := stats.CosineSimilarity(h.BaseSizes, newSizes)
	if err != nil {
		return 0, err
	}
	var nb, nn float64
	for i := range h.BaseSizes {
		nb += h.BaseSizes[i] * h.BaseSizes[i]
		nn += newSizes[i] * newSizes[i]
	}
	if nb == 0 {
		return 0, errors.New("model: zero base input size vector")
	}
	return math.Sqrt(nn/nb) * cos, nil
}

// Predict returns (T_new_pm_only, T_new_dram_only) for the new input's
// data-object size vector.
func (h *HomogeneousPredictor) Predict(newSizes []float64) (tPm, tDram float64, err error) {
	scale, err := h.scaleFactor(newSizes)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range h.Blocks {
		count := b.BaseCount * scale
		tPm += b.TimePM * count
		tDram += b.TimeDRAM * count
	}
	return tPm, tDram, nil
}
