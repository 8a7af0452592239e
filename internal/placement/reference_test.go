package placement

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"merchandiser/internal/ml"
	"merchandiser/internal/model"
)

// refEvents are the workload characteristics of the trained test models.
var refEvents = []string{"E0", "E1"}

// namedModel is one performance model the reference tests plan with.
// events says whether instances should carry refEvents counters.
type namedModel struct {
	name   string
	perf   *model.PerfModel
	events bool
}

// refTraining is a synthetic corpus in corpus.Matrix's layout (events,
// then r_dram) whose f depends on both events and the ratio.
func refTraining() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		e0, e1, r := rng.Float64(), rng.Float64(), rng.Float64()
		X = append(X, []float64{e0, e1, r})
		y = append(y, 0.55+0.4*e0*(1-r)+0.3*e1*r*r+0.05*rng.NormFloat64())
	}
	return X, y
}

func corrModel(m ml.Regressor) *model.PerfModel {
	return &model.PerfModel{Corr: &model.CorrelationFunc{Model: m, Events: refEvents}}
}

// restoredModel is m pushed through its flat form and back, as the
// artifact store restores it: a fresh model with no pointer trees.
func restoredModel(t testing.TB, m ml.Regressor) *model.PerfModel {
	t.Helper()
	fm, err := ml.DumpFlat(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ml.LoadFlat(&ml.FlatModel{
		Nodes: append([]ml.NodeRec(nil), fm.Nodes...),
		Roots: append([]int32(nil), fm.Roots...),
		Depth: append([]int32(nil), fm.Depth...),
		Meta:  fm.Meta,
	}, ml.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return corrModel(r)
}

// fittedRefEnsembles fits the GBR and the forest the reference tests
// plan with.
func fittedRefEnsembles(t testing.TB) (gbr *ml.GradientBoosted, forest *ml.RandomForest) {
	t.Helper()
	X, y := refTraining()
	gbr = ml.NewGradientBoosted(ml.GBRConfig{NumStages: 60, MaxDepth: 4, Seed: 1, Workers: 1})
	if err := gbr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	forest = ml.NewRandomForest(ml.ForestConfig{NumTrees: 8, MaxDepth: 8, MaxFeatures: 3, Seed: 2, Workers: 1})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return gbr, forest
}

// refModels is every model family the planners must stay exact for:
// the linear model (no correlation function), fitted and restored tree
// ensembles, which take the interval memo, and a fitted MLP, whose f
// varies continuously in r_dram and so must keep the exact-bits memo.
func refModels(t testing.TB) []namedModel {
	t.Helper()
	gbr, forest := fittedRefEnsembles(t)
	X, y := refTraining()
	mlp := ml.NewMLP(ml.MLPConfig{HiddenLayers: []int{12}, Epochs: 20, Seed: 3})
	if err := mlp.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return []namedModel{
		{"linear", linearModel(), false},
		{"gbr", corrModel(gbr), true},
		{"gbr-restored", restoredModel(t, gbr), true},
		{"forest", corrModel(forest), true},
		{"forest-restored", restoredModel(t, forest), true},
		{"mlp", corrModel(mlp), true},
	}
}

// randomInstance draws a task set and a capacity. Without events it
// consumes rng exactly as the original greedy reference test did, so
// that test's linear-model instances are unchanged. With events every
// task gets its own counters.
func randomInstance(rng *rand.Rand, events bool) ([]TaskInput, uint64) {
	n := 1 + rng.Intn(12)
	tasks := make([]TaskInput, n)
	var footprint uint64
	for i := range tasks {
		tDram := 0.5 + rng.Float64()*2
		pages := uint64(100 + rng.Intn(4000))
		footprint += pages
		tasks[i] = task(
			string(rune('a'+i)),
			tDram*(1.05+rng.Float64()*4), tDram,
			float64(1+rng.Intn(10))*1e6, pages,
		)
		if events {
			tasks[i].Events.Values["E0"] = rng.Float64()
			tasks[i].Events.Values["E1"] = rng.Float64()
		}
	}
	return tasks, uint64(rng.Int63n(int64(footprint) + 1))
}

// planDiff describes the first difference between two plans under
// math.Float64bits, or returns "" when they are identical.
func planDiff(got, want *Plan) string {
	if got.Rounds != want.Rounds {
		return fmt.Sprintf("Rounds %d, want %d", got.Rounds, want.Rounds)
	}
	for _, c := range []struct {
		field     string
		got, want []float64
	}{
		{"DRAMAccesses", got.DRAMAccesses, want.DRAMAccesses},
		{"GoalRatio", got.GoalRatio, want.GoalRatio},
		{"Predicted", got.Predicted, want.Predicted},
	} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s has %d entries, want %d", c.field, len(c.got), len(c.want))
		}
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", c.field, i, c.got[i], c.want[i])
			}
		}
	}
	if len(got.DRAMPages) != len(want.DRAMPages) {
		return fmt.Sprintf("DRAMPages has %d entries, want %d", len(got.DRAMPages), len(want.DRAMPages))
	}
	for i := range want.DRAMPages {
		if got.DRAMPages[i] != want.DRAMPages[i] {
			return fmt.Sprintf("DRAMPages[%d] = %d, want %d", i, got.DRAMPages[i], want.DRAMPages[i])
		}
	}
	return ""
}

// referenceMinMakespan is MinMakespanPlan as it was before the per-plan
// memo: it calls perf.Predict on every probe. It is the oracle for the
// memoized planner, whose plans must be unchanged.
func referenceMinMakespan(tasks []TaskInput, dc uint64, perf *model.PerfModel, tol float64) *Plan {
	if tol <= 0 {
		tol = 1e-3
	}
	predict := func(i int, r float64) float64 {
		t := tasks[i]
		return perf.Predict(t.TPmOnly, t.TDramOnly, t.Events, r)
	}
	minRatioFor := func(i int, T float64) (float64, bool) {
		if predict(i, 0) <= T {
			return 0, true
		}
		if predict(i, 1) > T {
			return 1, false
		}
		lo, hi := 0.0, 1.0
		for hi-lo > 1e-4 {
			mid := (lo + hi) / 2
			if predict(i, mid) <= T {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi, true
	}
	pagesFor := func(i int, r float64) uint64 {
		return mapToPages(tasks[i], r*tasks[i].TotalAccesses)
	}
	feasible := func(T float64) ([]float64, bool) {
		ratios := make([]float64, len(tasks))
		var total uint64
		for i := range tasks {
			r, ok := minRatioFor(i, T)
			if !ok {
				return nil, false
			}
			ratios[i] = r
			total += pagesFor(i, r)
			if total > dc {
				return nil, false
			}
		}
		return ratios, true
	}
	lo, hi := 0.0, 0.0
	for _, t := range tasks {
		if t.TDramOnly > lo {
			lo = t.TDramOnly
		}
		if t.TPmOnly > hi {
			hi = t.TPmOnly
		}
	}
	bestRatios, ok := feasible(hi)
	if !ok {
		bestRatios = make([]float64, len(tasks))
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if r, ok := feasible(mid); ok {
			bestRatios = r
			hi = mid
		} else {
			lo = mid
		}
	}
	plan := &Plan{
		DRAMAccesses: make([]float64, len(tasks)),
		GoalRatio:    append([]float64(nil), bestRatios...),
		DRAMPages:    make([]uint64, len(tasks)),
		Predicted:    make([]float64, len(tasks)),
	}
	for i := range tasks {
		plan.DRAMAccesses[i] = bestRatios[i] * tasks[i].TotalAccesses
		plan.DRAMPages[i] = pagesFor(i, bestRatios[i])
		plan.Predicted[i] = predict(i, bestRatios[i])
	}
	return plan
}

// TestMinMakespanMatchesReferenceImplementation pins the memoized
// bisection planner to the memo-free original on random instances, for
// every model family: the interval memo of tree ensembles (fitted and
// restored) and the exact-bits memo of the rest must both leave every
// plan field unchanged.
func TestMinMakespanMatchesReferenceImplementation(t *testing.T) {
	for _, m := range refModels(t) {
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 40; trial++ {
			tasks, dc := randomInstance(rng, m.events)
			tol := []float64{1e-3, 1e-2}[trial%4/2]
			got, err := MinMakespanPlan(tasks, dc, m.perf, tol)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceMinMakespan(tasks, dc, m.perf, tol)
			if d := planDiff(got, want); d != "" {
				t.Fatalf("%s trial %d (n=%d dc=%d): %s", m.name, trial, len(tasks), dc, d)
			}
		}
	}
}

// TestConcurrentPlansOnFreshRestore: the r_dram thresholds are computed
// on first use of a model that concurrent planners share — the replicas'
// handlers, the pipeline's evaluation workers. Eight goroutines plan on
// one freshly restored model at once, with both planners, and every plan
// must equal the one planned serially on another copy.
func TestConcurrentPlansOnFreshRestore(t *testing.T) {
	gbr, _ := fittedRefEnsembles(t)
	serial := restoredModel(t, gbr)
	rng := rand.New(rand.NewSource(44))
	type instance struct {
		tasks []TaskInput
		dc    uint64
	}
	insts := make([]instance, 16)
	greedy := make([]*Plan, len(insts))
	minmk := make([]*Plan, len(insts))
	for k := range insts {
		tasks, dc := randomInstance(rng, true)
		insts[k] = instance{tasks, dc}
		var err error
		if greedy[k], err = GreedyLoadBalance(tasks, dc, serial, Config{}); err != nil {
			t.Fatal(err)
		}
		if minmk[k], err = MinMakespanPlan(tasks, dc, serial, 1e-3); err != nil {
			t.Fatal(err)
		}
	}

	shared := restoredModel(t, gbr)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for j := range insts {
				k := (g + j) % len(insts)
				in := insts[k]
				var got, want *Plan
				var err error
				if (g+j)%2 == 0 {
					got, err = MinMakespanPlan(in.tasks, in.dc, shared, 1e-3)
					want = minmk[k]
				} else {
					got, err = GreedyLoadBalance(in.tasks, in.dc, shared, Config{})
					want = greedy[k]
				}
				if err != nil {
					t.Error(err)
					return
				}
				if d := planDiff(got, want); d != "" {
					t.Errorf("goroutine %d instance %d: %s", g, k, d)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestTreeModelsPlanThroughSplitIndex: the fitted and restored
// reference GBRs and depth-8 forests take the interval memo, whose
// misses evaluate through the model's split index — the forests' trees
// outgrow one 64-bit state word — and bind each task's events on its
// first miss; the linear model and the MLP keep the exact-bits memo.
// Every answer equals perf.Predict bit for bit.
func TestTreeModelsPlanThroughSplitIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, m := range refModels(t) {
		tasks, _ := randomInstance(rng, m.events)
		memo := newPredictMemo(tasks, m.perf, nil)
		tree := m.name != "linear" && m.name != "mlp"
		if got := memo.slab != nil; got != tree {
			t.Fatalf("%s: interval memo %v, want %v", m.name, got, tree)
		}
		if tree && memo.cache != nil {
			t.Fatalf("%s: a tree model also got the exact-bits memo", m.name)
		}
		if strings.HasPrefix(m.name, "forest") && m.perf.Corr.BindWords() <= 8 {
			t.Fatalf("%s: %d state words for 8 trees, want multi-word trees", m.name, m.perf.Corr.BindWords())
		}
		for i, task := range tasks {
			if tree && memo.slab.at[i] >= 0 {
				t.Fatalf("%s: task %d bound before its first miss", m.name, i)
			}
			for _, r := range []float64{0.3, 0, 1, 0.3} {
				got := memo.predictRatio(i, r)
				want := m.perf.Predict(task.TPmOnly, task.TDramOnly, task.Events, r)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: task %d at r=%v: memo %v, Predict %v", m.name, i, r, got, want)
				}
			}
			if tree && memo.slab.at[i] < 0 {
				t.Fatalf("%s: task %d not bound after its misses", m.name, i)
			}
		}
		memo.release()
	}
}

// KnapsackReference searches every grant of 0..granularity equal shares
// of each task's footprint that fits dc pages and returns the smallest
// predicted makespan with its page grants. It predicts at r = pages /
// footprint, while the planners search access ratios and map them to
// pages by object density, so it checks them on small instances but
// bounds neither: both can beat it. Exponential in the task count.
func KnapsackReference(tasks []TaskInput, dc uint64, perf *model.PerfModel, granularity int) (float64, []uint64) {
	if granularity <= 0 {
		granularity = 20
	}
	n := len(tasks)
	// Each task may receive 0..granularity shares of its footprint.
	best := math.Inf(1)
	var bestAlloc []uint64
	alloc := make([]uint64, n)
	var rec func(i int, remaining uint64)
	rec = func(i int, remaining uint64) {
		if i == n {
			makespan := 0.0
			for j, t := range tasks {
				r := 0.0
				if t.FootprintPages > 0 {
					r = float64(alloc[j]) / float64(t.FootprintPages)
				}
				pred := perf.Predict(t.TPmOnly, t.TDramOnly, t.Events, r)
				if pred > makespan {
					makespan = pred
				}
			}
			if makespan < best {
				best = makespan
				bestAlloc = append([]uint64(nil), alloc...)
			}
			return
		}
		t := tasks[i]
		for g := 0; g <= granularity; g++ {
			pages := uint64(float64(t.FootprintPages) * float64(g) / float64(granularity))
			if pages > remaining {
				break
			}
			alloc[i] = pages
			rec(i+1, remaining-pages)
		}
		alloc[i] = 0
	}
	rec(0, dc)
	return best, bestAlloc
}
