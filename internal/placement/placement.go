// Package placement implements Merchandiser's load-balance-aware
// fast-memory partitioning (Section 6):
//
//   - Algorithm 1, the greedy heuristic that repeatedly grants the
//     predicted-slowest task 5% more DRAM accesses until it drops below
//     the second slowest, until DRAM capacity is exhausted;
//   - an exact dynamic-programming knapsack reference for small instances,
//     used by tests to bound the heuristic's gap (the paper formulates the
//     underlying problem as a knapsack and argues NP-hardness);
//   - the migration gate that makes the MemoryOptimizer-style daemon
//     load-balance aware: pages of a task that already reached its DRAM
//     access goal are not migrated.
package placement

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/pmc"
)

// TaskInput is one task's model inputs for Algorithm 1.
type TaskInput struct {
	Name string
	// Tenant names the co-scheduled application the task belongs to ("" in
	// single-tenant runs). Planners respect per-tenant DRAM quotas via
	// Constraints.TenantQuota / Config.TenantQuota.
	Tenant string
	// TPmOnly is D_i, the predicted PM-only execution time of the task
	// with the upcoming input.
	TPmOnly float64
	// TDramOnly is the predicted DRAM-only time (Equation 2 needs both
	// bounds).
	TDramOnly float64
	// Events are the task's workload characteristics (PCs_i), collected
	// once with the base input.
	Events pmc.Counters
	// TotalAccesses is Total_Acc_i, the estimated number of main-memory
	// accesses of the upcoming instance (Equation 1 output, summed over
	// the task's data objects).
	TotalAccesses float64
	// FootprintPages is the number of memory pages holding the task's
	// data objects, for MAP_TO_PAGES.
	FootprintPages uint64
	// Objects, when provided, refines MAP_TO_PAGES with Merchandiser's
	// per-object access estimates (Equation 1): the page cost of a DRAM
	// access goal is computed by filling the densest objects first,
	// instead of Algorithm 1's uniform-distribution assumption (Line 18).
	// Empty Objects falls back to the paper's uniform mapping.
	Objects []ObjectLoad
}

// ObjectLoad is one data object's share of a task's estimated main-memory
// accesses and its page count.
type ObjectLoad struct {
	Name     string
	Accesses float64
	Pages    uint64
}

// Plan is Algorithm 1's output.
type Plan struct {
	// DRAMAccesses is DRAM_Acc_i per task.
	DRAMAccesses []float64
	// GoalRatio is DRAM_Acc_i / Total_Acc_i per task — what the migration
	// gate enforces.
	GoalRatio []float64
	// DRAMPages is DC_i, the per-task page budget (MAP_TO_PAGES).
	DRAMPages []uint64
	// Predicted is D'_i, the predicted execution time after migration.
	Predicted []float64
	// Rounds is how many outer iterations the algorithm ran.
	Rounds int
}

// PredictedMakespan returns the slowest predicted task time.
func (p *Plan) PredictedMakespan() float64 {
	m := 0.0
	for _, t := range p.Predicted {
		if t > m {
			m = t
		}
	}
	return m
}

// Config tunes Algorithm 1.
type Config struct {
	// Step is the DRAM-access increment per inner iteration as a fraction
	// of the task's total accesses; the paper uses 5%.
	Step float64
	// MaxRounds bounds the outer loop defensively.
	MaxRounds int
	// Obs, when non-nil, receives planner metrics: rounds, per-round grant
	// ratio deltas, memoized-prediction hit rates and the predicted
	// makespan. Deterministic for identical inputs.
	Obs *obs.Registry
	// TenantQuota caps the summed page grants of each tenant's tasks;
	// tenants absent from the map are unconstrained. Nil (the default)
	// disables quota clamping entirely.
	TenantQuota map[string]uint64
}

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 0.05
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 10000
	}
	return c
}

// mapToPages converts a task's DRAM access goal into a page budget.
// Without per-object loads it uses Algorithm 1's uniform-distribution
// assumption (Line 18). With them, it fills the densest objects first —
// a page-cost model consistent with what the migration daemon actually
// achieves, since hot-page ranking migrates dense objects first.
func mapToPages(in TaskInput, dramAcc float64) uint64 {
	if in.TotalAccesses <= 0 {
		return 0
	}
	frac := dramAcc / in.TotalAccesses
	if frac > 1 {
		frac = 1
	}
	if len(in.Objects) == 0 {
		return uint64(math.Ceil(frac * float64(in.FootprintPages)))
	}
	objs := append([]ObjectLoad(nil), in.Objects...)
	sort.Slice(objs, func(a, b int) bool {
		da, db := density(objs[a]), density(objs[b])
		if da != db {
			return da > db
		}
		return objs[a].Name < objs[b].Name
	})
	need := frac * in.TotalAccesses
	var pages uint64
	for _, o := range objs {
		if need <= 0 {
			break
		}
		if o.Accesses <= need {
			pages += o.Pages
			need -= o.Accesses
			continue
		}
		pages += uint64(math.Ceil(need / o.Accesses * float64(o.Pages)))
		need = 0
	}
	if pages > in.FootprintPages {
		pages = in.FootprintPages
	}
	return pages
}

func density(o ObjectLoad) float64 {
	if o.Pages == 0 {
		return 0
	}
	return o.Accesses / float64(o.Pages)
}

// accessesForPages inverts mapToPages' uniform mapping: the DRAM access
// goal a given page budget supports (Algorithm 1's Line 18 read
// backwards, as the capacity clamp already does).
func accessesForPages(t TaskInput, pages uint64) float64 {
	if t.FootprintPages == 0 || t.TotalAccesses <= 0 {
		return 0
	}
	frac := float64(pages) / float64(t.FootprintPages)
	if frac > 1 {
		frac = 1
	}
	return frac * t.TotalAccesses
}

// predictMemo caches performance-model predictions for one plan
// construction. Within a plan each task's events are fixed and only
// r_dram varies, so what it caches depends on the correlation function:
//
//   - A tree ensemble's f is constant between two consecutive split
//     thresholds of the r_dram column (model.CorrelationFunc.RDramSplits).
//     The memo keeps one f per (task, threshold interval) in a dense row
//     per task and recomputes Equation 2 on every probe — the arithmetic
//     PerfModel.Predict does — so a bisection pays one tree walk per
//     interval it visits, not one per probe.
//   - Every other model (SVR, KNN, the MLP, no correlation function) is
//     keyed on the ratio's exact float64 bits: equal ratios share an
//     entry, different ratios never do.
//
// Either way a lookup returns the identical value a fresh perf.Predict
// call would, so plans are unchanged; only repeated model walks go.
type predictMemo struct {
	tasks []TaskInput
	perf  *model.PerfModel
	// splits, fs and vecs are the interval memo, set for tree ensembles
	// only. fs holds len(splits)+1 slots per task, indexed by
	// sort.SearchFloat64s(splits, r); 0 marks an unset slot (clampF keeps
	// every f at 0.05 or above). fs comes from memoRows and goes back in
	// release. vecs[i] is task i's feature vector, built once per plan; a
	// miss rewrites its last slot, r_dram.
	splits []float64
	fs     []float64
	vecs   [][]float64
	// cache is the exact-bits memo every other model uses.
	cache map[predictKey]float64
	// requests/hits/misses count prediction lookups for the memo-hit-rate
	// metric; requests == hits + misses is an observed invariant the
	// property tests assert.
	requests, hits, misses *obs.Counter
}

type predictKey struct {
	task  int
	rbits uint64
}

// memoRows recycles the interval memo's dense rows across plans. A
// plan's rows take tens of kilobytes; allocated fresh, their page faults
// and GC work cost Algorithm 1 about what the saved walks do.
var memoRows = sync.Pool{New: func() any { return new([]float64) }}

func newPredictMemo(tasks []TaskInput, perf *model.PerfModel, reg *obs.Registry) *predictMemo {
	m := &predictMemo{
		tasks:    tasks,
		perf:     perf,
		requests: reg.Counter("placement.predictions"),
		hits:     reg.Counter("placement.memo.hits"),
		misses:   reg.Counter("placement.memo.misses"),
	}
	if corr := perf.Corr; corr != nil {
		if splits, ok := corr.RDramSplits(); ok {
			m.splits = splits
			buf := memoRows.Get().(*[]float64)
			m.fs = append((*buf)[:0], make([]float64, len(tasks)*(len(splits)+1))...)
			m.vecs = make([][]float64, len(tasks))
			flat := make([]float64, 0, len(tasks)*(len(corr.Events)+1))
			for i := range tasks {
				start := len(flat)
				flat = corr.AppendVector(flat, tasks[i].Events, 0)
				m.vecs[i] = flat[start:len(flat):len(flat)]
			}
			return m
		}
	}
	// Pre-size for a handful of distinct ratios per task so the common case
	// never rehashes.
	m.cache = make(map[predictKey]float64, 8*len(tasks))
	return m
}

// release returns the interval memo's rows to memoRows; the memo must
// not be used afterwards.
func (m *predictMemo) release() {
	if fs := m.fs; fs != nil {
		memoRows.Put(&fs)
	}
}

// predict converts a DRAM access goal into a ratio and returns the cached
// prediction for it.
func (m *predictMemo) predict(i int, dramAcc float64) float64 {
	t := m.tasks[i]
	r := 0.0
	if t.TotalAccesses > 0 {
		r = dramAcc / t.TotalAccesses
	}
	return m.predictRatio(i, r)
}

func (m *predictMemo) predictRatio(i int, r float64) float64 {
	m.requests.Inc()
	t := &m.tasks[i]
	if m.fs != nil {
		slot := m.slot(i, r)
		f := m.fs[slot]
		if f != 0 {
			m.hits.Inc()
		} else {
			m.misses.Inc()
			x := m.vecs[i]
			x[len(x)-1] = r
			f = m.perf.Corr.EvalVector(x)
			m.fs[slot] = f
		}
		return model.PredictHybrid(t.TPmOnly, t.TDramOnly, r, f)
	}
	key := predictKey{task: i, rbits: math.Float64bits(r)}
	if v, ok := m.cache[key]; ok {
		m.hits.Inc()
		return v
	}
	m.misses.Inc()
	v := m.perf.Predict(t.TPmOnly, t.TDramOnly, t.Events, r)
	m.cache[key] = v
	return v
}

// slot is the interval memo's index for task i at ratio r.
func (m *predictMemo) slot(i int, r float64) int {
	return i*(len(m.splits)+1) + sort.SearchFloat64s(m.splits, r)
}

// warmEndpoints seeds the memo with every task's r=0 and r=1 entries
// from one batch call: the bisection planner probes both endpoints for
// every candidate makespan, and the batch form runs the compiled
// model's block kernel — each tree's node table is walked for a whole
// block of rows at a time instead of once per task. Batch predictions
// are bit-identical to pointwise ones, so seeded entries change nothing
// but the walk count.
func (m *predictMemo) warmEndpoints() {
	n := len(m.tasks)
	tPm := make([]float64, 0, 2*n)
	tDram := make([]float64, 0, 2*n)
	evs := make([]pmc.Counters, 0, 2*n)
	ratios := make([]float64, 0, 2*n)
	for _, r := range []float64{0, 1} {
		for i := range m.tasks {
			t := &m.tasks[i]
			tPm = append(tPm, t.TPmOnly)
			tDram = append(tDram, t.TDramOnly)
			evs = append(evs, t.Events)
			ratios = append(ratios, r)
		}
	}
	if m.fs != nil {
		for k, f := range m.perf.Corr.EvalBatch(evs, ratios) {
			m.fs[m.slot(k%n, ratios[k])] = f
		}
		return
	}
	preds := m.perf.PredictBatch(tPm, tDram, evs, ratios)
	for k, v := range preds {
		i := k % n
		m.cache[predictKey{task: i, rbits: math.Float64bits(ratios[k])}] = v
	}
}

// GreedyLoadBalance is Algorithm 1. It returns the per-task DRAM access
// goals that (predictedly) minimize the makespan within the DRAM capacity
// dc (in pages), using the performance model for Line 15's prediction.
func GreedyLoadBalance(tasks []TaskInput, dc uint64, perf *model.PerfModel, cfg Config) (*Plan, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("placement: no tasks")
	}
	cfg = cfg.withDefaults()
	for i, t := range tasks {
		if t.TPmOnly <= 0 || t.TotalAccesses < 0 {
			return nil, fmt.Errorf("placement: task %d (%s) has invalid inputs: tPm=%v acc=%v",
				i, t.Name, t.TPmOnly, t.TotalAccesses)
		}
		if t.TDramOnly <= 0 || t.TDramOnly > t.TPmOnly {
			return nil, fmt.Errorf("placement: task %d (%s) has invalid DRAM-only time %v (PM-only %v)",
				i, t.Name, t.TDramOnly, t.TPmOnly)
		}
	}

	n := len(tasks)
	plan := &Plan{
		DRAMAccesses: make([]float64, n),
		GoalRatio:    make([]float64, n),
		DRAMPages:    make([]uint64, n),
		Predicted:    make([]float64, n),
	}
	for i, t := range tasks {
		plan.Predicted[i] = t.TPmOnly // D'_i ← D_i
	}

	// used maintains sum(plan.DRAMPages) incrementally: every grant updates
	// one task's page budget, so a full rescan per round is wasted work.
	var used uint64
	// Algorithm 1 revisits the same (task, r_dram) pairs across rounds —
	// every round re-predicts the incumbent at its current grant, and 5%
	// steps land on a small grid of ratios. Predictions are deterministic,
	// so memoize them per plan: per r_dram split interval for tree
	// ensembles, per exact ratio bits otherwise (see predictMemo).
	memo := newPredictMemo(tasks, perf, cfg.Obs)
	defer memo.release()
	predict := memo.predict
	// ratioDelta observes the per-round grant growth as a fraction of the
	// incumbent's total accesses; one Step per inner iteration, so the
	// distribution shows how many 5% steps each round needed.
	ratioDelta := cfg.Obs.HistogramBuckets("placement.ratio_delta",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1})

	// full marks tasks whose DRAM access goal reached 100%.
	full := make([]bool, n)
	// tenantUsed tracks per-tenant page sums when quotas are configured
	// (nil otherwise — the quota-free path is untouched).
	var tenantUsed map[string]uint64
	if len(cfg.TenantQuota) > 0 {
		tenantUsed = map[string]uint64{}
	}
	for round := 0; round < cfg.MaxRounds; round++ {
		// Line 10: pick the longest predicted task that can still grow.
		longest := -1
		for i := 0; i < n; i++ {
			if full[i] {
				continue
			}
			if longest < 0 || plan.Predicted[i] > plan.Predicted[longest] {
				longest = i
			}
		}
		if longest < 0 {
			break // every task fully granted
		}
		// Line 11: second-longest among all tasks.
		secondT := 0.0
		for i := 0; i < n; i++ {
			if i != longest && plan.Predicted[i] > secondT {
				secondT = plan.Predicted[i]
			}
		}
		if n == 1 {
			secondT = tasks[0].TDramOnly // a lone task improves until DRAM-only
		}

		t := tasks[longest]
		dramAcc := plan.DRAMAccesses[longest]
		prevAcc := dramAcc

		// Lines 13-16 (do-while): grow this task's DRAM accesses by 5%
		// steps until it is no longer the bottleneck (or fully granted).
		for {
			dramAcc += cfg.Step * t.TotalAccesses
			if dramAcc >= t.TotalAccesses {
				dramAcc = t.TotalAccesses
				full[longest] = true
			}
			plan.Predicted[longest] = predict(longest, dramAcc)
			if plan.Predicted[longest] <= secondT || full[longest] {
				break
			}
		}

		// Line 19: respect DRAM capacity; clamp the final grant to fit.
		newPages := mapToPages(t, dramAcc)
		oldPages := plan.DRAMPages[longest]
		others := used - oldPages

		// Per-tenant quota clamp: a task whose tenant's budget is exhausted
		// is treated as fully granted (it stops growing), but other tenants'
		// tasks keep competing — unlike the capacity clamp below, which
		// ends the whole algorithm.
		if tenantUsed != nil {
			if q, ok := cfg.TenantQuota[t.Tenant]; ok {
				tOthers := tenantUsed[t.Tenant] - oldPages
				if tOthers+newPages > q {
					fit := uint64(0)
					if q > tOthers {
						fit = q - tOthers
					}
					if fit < oldPages {
						fit = oldPages
					}
					newPages = fit
					dramAcc = accessesForPages(t, newPages)
					if dramAcc < prevAcc {
						dramAcc = prevAcc
					}
					plan.Predicted[longest] = predict(longest, dramAcc)
					full[longest] = true
				}
			}
		}
		if others+newPages > dc {
			fit := uint64(0)
			if dc > others {
				fit = dc - others
			}
			if fit > oldPages {
				plan.DRAMPages[longest] = fit
				used = others + fit
				if t.FootprintPages > 0 {
					frac := float64(fit) / float64(t.FootprintPages)
					if frac > 1 {
						frac = 1
					}
					plan.DRAMAccesses[longest] = frac * t.TotalAccesses
				}
			}
			plan.Predicted[longest] = predict(longest, plan.DRAMAccesses[longest])
			plan.Rounds = round + 1
			if t.TotalAccesses > 0 {
				ratioDelta.Observe((plan.DRAMAccesses[longest] - prevAcc) / t.TotalAccesses)
			}
			break // Line 19: DRAM capacity exhausted
		}
		plan.DRAMAccesses[longest] = dramAcc
		plan.DRAMPages[longest] = newPages
		used = others + newPages
		if tenantUsed != nil {
			tenantUsed[t.Tenant] = tenantUsed[t.Tenant] - oldPages + newPages
		}
		plan.Rounds = round + 1
		if t.TotalAccesses > 0 {
			ratioDelta.Observe((dramAcc - prevAcc) / t.TotalAccesses)
		}
	}

	for i, t := range tasks {
		if t.TotalAccesses > 0 {
			plan.GoalRatio[i] = plan.DRAMAccesses[i] / t.TotalAccesses
		}
	}
	if reg := cfg.Obs; reg != nil {
		reg.Counter("placement.plans").Inc()
		reg.Counter("placement.rounds").Add(float64(plan.Rounds))
		reg.Gauge("placement.predicted_makespan").Set(plan.PredictedMakespan())
	}
	return plan, nil
}

// Gate makes page migration load-balance aware (Section 6, "Page
// migration"): before the daemon migrates a hot page to DRAM, it asks the
// gate whether the tasks that access that page still need more DRAM
// accesses — plural, as the paper states: a page serving several tasks
// stays migratable while any of them is under its goal.
type Gate struct {
	// GoalRatio maps task name to its DRAM access-ratio goal from
	// Algorithm 1.
	GoalRatio map[string]float64
	// Achieved maps task name to its currently achieved DRAM access
	// ratio (engine TaskStatus.RDRAM); updated each tick.
	Achieved map[string]float64
	// Accessors maps object name to the tasks accessing it this
	// instance. Objects absent from the map fall back to their owner.
	Accessors map[string][]string
}

// NewGate builds a gate from a plan.
func NewGate(tasks []TaskInput, plan *Plan) *Gate {
	g := &Gate{GoalRatio: map[string]float64{}, Achieved: map[string]float64{}}
	for i, t := range tasks {
		g.GoalRatio[t.Name] = plan.GoalRatio[i]
	}
	return g
}

// Update records the current per-task achieved ratios.
func (g *Gate) Update(tasks []hm.TaskStatus) {
	for _, ts := range tasks {
		g.Achieved[ts.Name] = ts.RDRAM
	}
}

// underGoal reports whether the named task still wants DRAM accesses.
// Unknown tasks are unconstrained.
func (g *Gate) underGoal(task string) bool {
	goal, ok := g.GoalRatio[task]
	if !ok {
		return true
	}
	return g.Achieved[task] < goal
}

// Allows reports whether a page of obj may be migrated to DRAM: yes while
// any task accessing the object is under its goal. Ownerless objects with
// no recorded accessors are always allowed.
func (g *Gate) Allows(obj *hm.Object) bool {
	if obj == nil {
		return false
	}
	if acc, ok := g.Accessors[obj.Name]; ok {
		for _, t := range acc {
			if g.underGoal(t) {
				return true
			}
		}
		return false
	}
	if obj.Owner == "" {
		return true
	}
	return g.underGoal(obj.Owner)
}

// Constraints bounds a plan: the total DRAM capacity plus optional
// per-tenant page quotas for multi-tenant co-scheduling.
type Constraints struct {
	// CapacityPages is the DRAM capacity dc available to the plan.
	CapacityPages uint64
	// TenantQuota caps the summed page grants of each tenant's tasks;
	// tenants absent from the map are unconstrained. Nil disables the
	// per-tenant checks entirely (the single-tenant fast path).
	TenantQuota map[string]uint64
}

// MinMakespanPlan computes a near-optimal partition by binary search over
// the achievable makespan: for a candidate time T, each task's minimum
// DRAM grant to get its prediction under T is found by monotone bisection
// (Equation 2 is non-increasing in r_dram), and T is feasible when the
// grants fit the capacity. The paper's artifact lists "dynamic programming
// and greedy heuristic" as its key algorithms; this is the
// exact-within-tolerance counterpart used to audit Algorithm 1's gap.
func MinMakespanPlan(tasks []TaskInput, dc uint64, perf *model.PerfModel, tol float64) (*Plan, error) {
	return MinMakespanPlanConstrained(tasks, Constraints{CapacityPages: dc}, perf, tol)
}

// MinMakespanPlanConstrained is MinMakespanPlan under explicit
// Constraints: a candidate makespan is feasible only if the minimum
// grants fit the total capacity AND every tenant's summed grant fits its
// quota. Raising T only shrinks grants, so feasibility stays monotone and
// the same bisection applies. With no quotas configured the result is
// identical to MinMakespanPlan.
func MinMakespanPlanConstrained(tasks []TaskInput, cons Constraints, perf *model.PerfModel, tol float64) (*Plan, error) {
	dc := cons.CapacityPages
	if len(tasks) == 0 {
		return nil, fmt.Errorf("placement: no tasks")
	}
	if tol <= 0 {
		tol = 1e-3
	}
	for i, t := range tasks {
		if t.TPmOnly <= 0 || t.TDramOnly <= 0 || t.TDramOnly > t.TPmOnly {
			return nil, fmt.Errorf("placement: task %d (%s) has invalid bounds", i, t.Name)
		}
	}
	// The bisections revisit the endpoints and nearby ratios for every
	// candidate T. The same per-plan memo that serves Algorithm 1 removes
	// those repeated model walks: with a tree ensemble, every probe that
	// lands in an r_dram interval already walked is a hit, whatever its
	// exact bits. The endpoint predictions every feasibility probe starts
	// from are precomputed in one pass through the compiled model's batch
	// kernel.
	memo := newPredictMemo(tasks, perf, nil)
	defer memo.release()
	memo.warmEndpoints()
	predict := memo.predictRatio
	// Minimum DRAM ratio for task i to be predicted at or under T
	// (+inf pages when even r = 1 cannot reach T).
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
		var perTenant map[string]uint64
		if len(cons.TenantQuota) > 0 {
			perTenant = make(map[string]uint64, len(cons.TenantQuota))
		}
		for i := range tasks {
			r, ok := minRatioFor(i, T)
			if !ok {
				return nil, false
			}
			ratios[i] = r
			p := pagesFor(i, r)
			total += p
			if total > dc {
				return nil, false
			}
			if perTenant != nil {
				if q, has := cons.TenantQuota[tasks[i].Tenant]; has {
					perTenant[tasks[i].Tenant] += p
					if perTenant[tasks[i].Tenant] > q {
						return nil, false
					}
				}
			}
		}
		return ratios, true
	}

	// Search between the best case (everything at DRAM speed) and the
	// worst (everything on PM).
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
		// Even PM-only should be feasible (zero pages); defensive.
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
	return plan, nil
}

// KnapsackReference solves the fast-memory partitioning exactly for small
// instances by dynamic programming over page grants, minimizing the
// predicted makespan. Exponential-ish in resolution; tests only.
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
