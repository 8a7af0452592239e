package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/pmc"
)

// linearModel is a PerfModel with no correlation function: pure linear
// interpolation between the bounds, which makes expected outcomes easy to
// compute by hand.
func linearModel() *model.PerfModel { return &model.PerfModel{} }

func task(name string, tPm, tDram, acc float64, pages uint64) TaskInput {
	return TaskInput{
		Name: name, TPmOnly: tPm, TDramOnly: tDram,
		TotalAccesses: acc, FootprintPages: pages,
		Events: pmc.Counters{Values: map[string]float64{}},
	}
}

func TestGreedyBalancesTwoUnevenTasks(t *testing.T) {
	tasks := []TaskInput{
		task("slow", 10, 2, 1e6, 1000),
		task("fast", 4, 1, 1e6, 1000),
	}
	// Capacity for 60% of the combined footprints: the slow task must be
	// served first and receive more DRAM than the fast one.
	plan, err := GreedyLoadBalance(tasks, 1200, linearModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.DRAMAccesses[0] <= plan.DRAMAccesses[1] {
		t.Fatalf("slow task got %v accesses, fast got %v", plan.DRAMAccesses[0], plan.DRAMAccesses[1])
	}
	if plan.PredictedMakespan() >= 9 {
		t.Fatalf("makespan %v barely improved", plan.PredictedMakespan())
	}
	// Predicted times should end up close to each other (load balance).
	if math.Abs(plan.Predicted[0]-plan.Predicted[1]) > 2.5 {
		t.Fatalf("unbalanced prediction: %v", plan.Predicted)
	}
	// With unlimited capacity every task is eventually fully granted.
	unbounded, err := GreedyLoadBalance(tasks, 1<<40, linearModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range unbounded.GoalRatio {
		if r < 0.999 {
			t.Fatalf("task %d goal ratio %v under unlimited capacity, want 1", i, r)
		}
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	tasks := []TaskInput{
		task("a", 10, 2, 1e6, 1000),
		task("b", 9, 2, 1e6, 1000),
		task("c", 8, 2, 1e6, 1000),
	}
	const dc = 500
	plan, err := GreedyLoadBalance(tasks, dc, linearModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range plan.DRAMPages {
		total += p
	}
	if total > dc {
		t.Fatalf("plan uses %d pages, capacity %d", total, dc)
	}
}

func TestGreedyNeverWorsensPredictedMakespan(t *testing.T) {
	f := func(seedRaw uint8) bool {
		seed := int64(seedRaw)
		tasks := []TaskInput{
			task("a", 5+float64(seed%7), 1, 1e6, 500),
			task("b", 3+float64(seed%5), 1, 2e6, 800),
			task("c", 8, 2, 5e5, 300),
		}
		before := 0.0
		for _, tk := range tasks {
			if tk.TPmOnly > before {
				before = tk.TPmOnly
			}
		}
		plan, err := GreedyLoadBalance(tasks, uint64(100*(seed+1)), linearModel(), Config{})
		if err != nil {
			return false
		}
		return plan.PredictedMakespan() <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySingleTask(t *testing.T) {
	tasks := []TaskInput{task("only", 10, 2, 1e6, 1000)}
	plan, err := GreedyLoadBalance(tasks, 10000, linearModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A lone task should be pushed toward DRAM-only.
	if plan.GoalRatio[0] < 0.95 {
		t.Fatalf("single task goal ratio = %v, want ~1", plan.GoalRatio[0])
	}
	if plan.PredictedMakespan() > 2.5 {
		t.Fatalf("single task makespan = %v, want near DRAM-only (2)", plan.PredictedMakespan())
	}
}

func TestGreedyValidation(t *testing.T) {
	if _, err := GreedyLoadBalance(nil, 100, linearModel(), Config{}); err == nil {
		t.Fatal("empty tasks should error")
	}
	bad := []TaskInput{task("x", 0, 0, 1e6, 10)}
	if _, err := GreedyLoadBalance(bad, 100, linearModel(), Config{}); err == nil {
		t.Fatal("zero times should error")
	}
	inverted := []TaskInput{task("x", 2, 5, 1e6, 10)}
	if _, err := GreedyLoadBalance(inverted, 100, linearModel(), Config{}); err == nil {
		t.Fatal("DRAM slower than PM should error")
	}
}

// TestPlannersRefuseBadInputs: both planners run one input check, so
// each refuses a task whose time or access count is NaN, infinite, out
// of range, or whose DRAM-only time exceeds its PM-only time (a NaN
// access count once kept Algorithm 1's grant loop from ending, and a
// NaN time planned to NaN predictions). Finite edge cases stay accepted
// and plan exactly as the reference implementations do.
func TestPlannersRefuseBadInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := func(edit func(*TaskInput)) []TaskInput {
		tasks := []TaskInput{task("a", 10, 2, 1e6, 1000), task("b", 4, 1, 1e6, 1000)}
		edit(&tasks[1])
		return tasks
	}
	const dc = 1200
	bad := []struct {
		name string
		edit func(*TaskInput)
	}{
		{"tPm NaN", func(t *TaskInput) { t.TPmOnly = nan }},
		{"tPm +Inf", func(t *TaskInput) { t.TPmOnly = inf }},
		{"tPm -Inf", func(t *TaskInput) { t.TPmOnly = -inf }},
		{"tPm 0", func(t *TaskInput) { t.TPmOnly = 0 }},
		{"tDram NaN", func(t *TaskInput) { t.TDramOnly = nan }},
		{"tDram +Inf", func(t *TaskInput) { t.TDramOnly = inf }},
		{"tDram -Inf", func(t *TaskInput) { t.TDramOnly = -inf }},
		{"tDram 0", func(t *TaskInput) { t.TDramOnly = 0 }},
		{"tDram above tPm", func(t *TaskInput) { t.TDramOnly = 5 }},
		{"accesses NaN", func(t *TaskInput) { t.TotalAccesses = nan }},
		{"accesses +Inf", func(t *TaskInput) { t.TotalAccesses = inf }},
		{"accesses -Inf", func(t *TaskInput) { t.TotalAccesses = -inf }},
		{"accesses negative", func(t *TaskInput) { t.TotalAccesses = -1 }},
	}
	for _, c := range bad {
		tasks := base(c.edit)
		if plan, err := GreedyLoadBalance(tasks, dc, linearModel(), Config{}); err == nil {
			t.Fatalf("%s: GreedyLoadBalance accepted it and predicted %v", c.name, plan.Predicted)
		}
		if plan, err := MinMakespanPlan(tasks, dc, linearModel(), 0); err == nil {
			t.Fatalf("%s: MinMakespanPlan accepted it and predicted %v", c.name, plan.Predicted)
		}
	}
	if _, err := GreedyLoadBalance(nil, dc, linearModel(), Config{}); err == nil {
		t.Fatal("GreedyLoadBalance accepted no tasks")
	}
	if _, err := MinMakespanPlan(nil, dc, linearModel(), 0); err == nil {
		t.Fatal("MinMakespanPlan accepted no tasks")
	}
	for _, c := range []struct {
		name string
		edit func(*TaskInput)
	}{
		{"as given", func(*TaskInput) {}},
		{"no accesses", func(t *TaskInput) { t.TotalAccesses = 0 }},
		{"tDram equal to tPm", func(t *TaskInput) { t.TDramOnly = t.TPmOnly }},
	} {
		tasks := base(c.edit)
		got, err := GreedyLoadBalance(tasks, dc, linearModel(), Config{})
		if err != nil {
			t.Fatalf("%s: GreedyLoadBalance: %v", c.name, err)
		}
		if d := planDiff(got, referenceGreedy(tasks, dc, linearModel(), Config{})); d != "" {
			t.Fatalf("%s: GreedyLoadBalance: %s", c.name, d)
		}
		if got, err = MinMakespanPlan(tasks, dc, linearModel(), 0); err != nil {
			t.Fatalf("%s: MinMakespanPlan: %v", c.name, err)
		}
		if d := planDiff(got, referenceMinMakespan(tasks, dc, linearModel(), 0)); d != "" {
			t.Fatalf("%s: MinMakespanPlan: %s", c.name, d)
		}
	}
}

func TestGreedyStepGranularity(t *testing.T) {
	tasks := []TaskInput{
		task("a", 10, 2, 1e6, 1000),
		task("b", 9.9, 2, 1e6, 1000),
	}
	coarse, err := GreedyLoadBalance(tasks, 2000, linearModel(), Config{Step: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := GreedyLoadBalance(tasks, 2000, linearModel(), Config{Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Finer steps can only do as well or better on predicted makespan.
	if fine.PredictedMakespan() > coarse.PredictedMakespan()+1e-9 {
		t.Fatalf("fine step (%v) worse than coarse (%v)",
			fine.PredictedMakespan(), coarse.PredictedMakespan())
	}
}

func TestGreedyNearOptimalOnSmallInstances(t *testing.T) {
	tasks := []TaskInput{
		task("a", 10, 3, 1e6, 100),
		task("b", 6, 2, 1e6, 100),
		task("c", 4, 1.5, 1e6, 100),
	}
	const dc = 120
	plan, err := GreedyLoadBalance(tasks, dc, linearModel(), Config{Step: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := KnapsackReference(tasks, dc, linearModel(), 25)
	if plan.PredictedMakespan() > opt*1.15 {
		t.Fatalf("greedy makespan %v vs optimal %v: gap too large",
			plan.PredictedMakespan(), opt)
	}
}

func TestGateEnforcesGoals(t *testing.T) {
	tasks := []TaskInput{
		task("a", 10, 2, 1e6, 1000),
		task("b", 4, 1, 1e6, 1000),
	}
	plan, err := GreedyLoadBalance(tasks, 100000, linearModel(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(tasks, plan)
	mem := hm.NewMemory(hm.DefaultSpec())
	objA, _ := mem.Alloc("A", "a", 4096, hm.PM)
	objB, _ := mem.Alloc("B", "b", 4096, hm.PM)
	objShared, _ := mem.Alloc("S", "", 4096, hm.PM)

	// Before any achievement report, everything under a positive goal is
	// allowed.
	if plan.GoalRatio[0] > 0 && !g.Allows(objA) {
		t.Fatal("task under goal should be allowed")
	}
	// Report task a at goal, task b far below.
	g.Update([]hm.TaskStatus{
		{Name: "a", RDRAM: plan.GoalRatio[0] + 0.01},
		{Name: "b", RDRAM: 0},
	})
	if g.Allows(objA) {
		t.Fatal("task at goal must be gated")
	}
	if plan.GoalRatio[1] > 0 && !g.Allows(objB) {
		t.Fatal("task under goal must pass")
	}
	if !g.Allows(objShared) {
		t.Fatal("ownerless object must pass")
	}
	if g.Allows(nil) {
		t.Fatal("nil object must not pass")
	}
	// Unknown owner passes (no goal constrains it).
	objX, _ := mem.Alloc("X", "stranger", 4096, hm.PM)
	if !g.Allows(objX) {
		t.Fatal("unknown owner should pass")
	}
}

func TestMapToPages(t *testing.T) {
	in := task("a", 10, 2, 1000, 100)
	if got := mapToPages(in, 500); got != 50 {
		t.Fatalf("mapToPages = %d, want 50", got)
	}
	if got := mapToPages(in, 2000); got != 100 {
		t.Fatalf("over-goal should clamp to footprint, got %d", got)
	}
	if got := mapToPages(task("z", 1, 0.5, 0, 100), 10); got != 0 {
		t.Fatalf("zero accesses should map to zero pages, got %d", got)
	}
}

// referenceGreedy is the pre-optimization Algorithm 1 (full usedPages
// rescan every round, no prediction memo), kept as the oracle for the
// incremental-sum and memoization rewrite: plans must be unchanged.
func referenceGreedy(tasks []TaskInput, dc uint64, perf *model.PerfModel, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	n := len(tasks)
	plan := &Plan{
		DRAMAccesses: make([]float64, n),
		GoalRatio:    make([]float64, n),
		DRAMPages:    make([]uint64, n),
		Predicted:    make([]float64, n),
	}
	for i, t := range tasks {
		plan.Predicted[i] = t.TPmOnly
	}
	usedPages := func() uint64 {
		var s uint64
		for _, p := range plan.DRAMPages {
			s += p
		}
		return s
	}
	predict := func(i int, dramAcc float64) float64 {
		t := tasks[i]
		r := 0.0
		if t.TotalAccesses > 0 {
			r = dramAcc / t.TotalAccesses
		}
		return perf.Predict(t.TPmOnly, t.TDramOnly, t.Events, r)
	}
	full := make([]bool, n)
	for round := 0; round < maxRounds; round++ {
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
			break
		}
		secondT := 0.0
		for i := 0; i < n; i++ {
			if i != longest && plan.Predicted[i] > secondT {
				secondT = plan.Predicted[i]
			}
		}
		if n == 1 {
			secondT = tasks[0].TDramOnly
		}
		t := tasks[longest]
		dramAcc := plan.DRAMAccesses[longest]
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
		newPages := mapToPages(t, dramAcc)
		oldPages := plan.DRAMPages[longest]
		others := usedPages() - oldPages
		if others+newPages > dc {
			fit := uint64(0)
			if dc > others {
				fit = dc - others
			}
			if fit > oldPages {
				plan.DRAMPages[longest] = fit
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
			break
		}
		plan.DRAMAccesses[longest] = dramAcc
		plan.DRAMPages[longest] = newPages
		plan.Rounds = round + 1
	}
	for i, t := range tasks {
		if t.TotalAccesses > 0 {
			plan.GoalRatio[i] = plan.DRAMAccesses[i] / t.TotalAccesses
		}
	}
	return plan
}

// TestGreedyMatchesReferenceImplementation pins the memoized/incremental
// GreedyLoadBalance to the original algorithm on randomized instances,
// for every model family of refModels: the interval memo of fitted and
// restored tree ensembles, and the exact-bits memo of the linear model
// and the MLP. Every plan field must match under math.Float64bits.
func TestGreedyMatchesReferenceImplementation(t *testing.T) {
	for _, m := range refModels(t) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			tasks, dc := randomInstance(rng, m.events)
			got, err := GreedyLoadBalance(tasks, dc, m.perf, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGreedy(tasks, dc, m.perf, Config{})
			if d := planDiff(got, want); d != "" {
				t.Fatalf("%s trial %d (n=%d dc=%d): %s", m.name, trial, len(tasks), dc, d)
			}
		}
	}
}
