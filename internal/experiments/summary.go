package experiments

import (
	"encoding/json"
	"io"
	"time"

	"merchandiser/internal/hm"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/stats"
)

// Summary is the machine-readable form of the whole evaluation, for
// downstream plotting and regression tracking.
type Summary struct {
	Seed           int64              `json:"seed"`
	Quick          bool               `json:"quick"`
	CorrelationR2  float64            `json:"correlation_r2"`
	TrainingSample int                `json:"training_samples"`
	Apps           []AppSummary       `json:"apps"`
	MeanSpeedup    map[string]float64 `json:"mean_speedup"`
	Fig3           []Fig3Row          `json:"fig3,omitempty"`
	Table3         []Table3Row        `json:"table3,omitempty"`
	Table4         []Table4Row        `json:"table4,omitempty"`
	Fig7           []Fig7Point        `json:"fig7,omitempty"`
	Ablations      []AblationRow      `json:"ablations,omitempty"`
	Timing         *Timing            `json:"timing,omitempty"`
}

// Timing is the wall-clock cost of the offline pipeline and the online
// placement decision, as the -json summary reports it. It is a single
// unrepeated run; perfbench is the harness for performance claims.
type Timing struct {
	// Workers is the concurrency the run used (0 was resolved to NumCPU).
	Workers int `json:"workers"`
	// Pipelined records whether the phases overlapped (RunPipeline) or
	// ran one after the other (Prepare or a restored model, then
	// RunEvaluation).
	Pipelined bool `json:"pipelined"`
	// TrainSeconds is corpus generation + correlation-function fitting.
	TrainSeconds float64 `json:"train_seconds"`
	// EvalSeconds is the full (application × policy) evaluation matrix.
	EvalSeconds float64 `json:"eval_seconds"`
	// CorpusSeconds is the corpus stream wall (first region claimed to
	// last batch emitted); FitSeconds is the boosting fitter's wall. In a
	// pipelined run both overlap TrainSeconds rather than summing to it.
	CorpusSeconds float64 `json:"corpus_seconds,omitempty"`
	FitSeconds    float64 `json:"fit_seconds,omitempty"`
	// E2ESeconds is the whole pipeline wall (pipelined runs only).
	E2ESeconds float64 `json:"e2e_seconds,omitempty"`
	// OverlapRatio is (TrainSeconds+EvalSeconds)/E2ESeconds. Values
	// above 1 prove the phases overlapped instead of serializing; 1
	// means they ran one after the other.
	OverlapRatio float64 `json:"overlap_ratio,omitempty"`
	// PlacementMicros is one Algorithm 1 partitioning of a 24-task
	// instance with the trained model (the §7.2 overhead claim).
	PlacementMicros float64 `json:"placement_micros"`
}

// TimingFromRegistry assembles the timing block from the pipeline
// registry's volatile wall timers. The overlap ratio lives here — not
// in the registry — so deterministic metrics dumps stay byte-identical
// across machines and schedules.
func TimingFromRegistry(reg *obs.Registry, workers int, pipelined bool, art *Artifacts) *Timing {
	t := &Timing{
		Workers:         workers,
		Pipelined:       pipelined,
		TrainSeconds:    reg.WallTimer("pipeline.train_seconds").Seconds(),
		EvalSeconds:     reg.WallTimer("pipeline.eval_seconds").Seconds(),
		CorpusSeconds:   reg.WallTimer("corpus.stream_seconds").Seconds(),
		FitSeconds:      reg.WallTimer("ml.gbr.fit_seconds").Seconds(),
		E2ESeconds:      reg.WallTimer("pipeline.e2e_seconds").Seconds(),
		PlacementMicros: TimePlacement(art),
	}
	if t.E2ESeconds > 0 {
		t.OverlapRatio = (t.TrainSeconds + t.EvalSeconds) / t.E2ESeconds
	}
	return t
}

// TimePlacement measures one GreedyLoadBalance call on a representative
// 24-task instance with the trained performance model and returns the
// wall-clock cost in microseconds (averaged over a few repetitions).
func TimePlacement(art *Artifacts) float64 {
	tasks := make([]placement.TaskInput, 24)
	for i := range tasks {
		tasks[i] = placement.TaskInput{
			Name: string(rune('a' + i)), TPmOnly: 2 + float64(i%5), TDramOnly: 1,
			TotalAccesses: 1e7, FootprintPages: 2000,
			Events: pmc.Counters{Values: map[string]float64{}},
		}
	}
	const reps = 10
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := placement.GreedyLoadBalance(tasks, 2048, art.Perf, placement.Config{}); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Microseconds()) / reps
}

// AppSummary is one application's per-policy results.
type AppSummary struct {
	App      string          `json:"app"`
	Policies []PolicySummary `json:"policies"`
}

// PolicySummary is one (app, policy) cell.
type PolicySummary struct {
	Policy        string  `json:"policy"`
	TotalSeconds  float64 `json:"total_seconds"`
	Speedup       float64 `json:"speedup_vs_pm_only"`
	ACV           float64 `json:"acv"`
	MigratedPages uint64  `json:"migrated_pages"`
	MigSpreadMax  uint64  `json:"migration_spread_max,omitempty"`
	MigSpreadMin  uint64  `json:"migration_spread_min,omitempty"`
	AvgDRAMBwGBs  float64 `json:"avg_dram_bw_gbs"`
	AvgPMBwGBs    float64 `json:"avg_pm_bw_gbs"`
}

// Summarize converts an evaluation into its machine-readable form.
func Summarize(art *Artifacts, eval *Eval, cfg Config) *Summary {
	samples := len(art.Samples)
	if samples == 0 {
		samples = art.SampleCount
	}
	s := &Summary{
		Seed:           cfg.Seed,
		Quick:          cfg.Quick,
		CorrelationR2:  art.TestR2,
		TrainingSample: samples,
		MeanSpeedup:    map[string]float64{},
	}
	for _, p := range []string{"MemoryMode", "MemoryOptimizer", "Merchandiser"} {
		s.MeanSpeedup[p] = eval.MeanSpeedup(p)
	}
	for _, app := range AppNames {
		as := AppSummary{App: app}
		for _, pol := range eval.sortedPolicies(app) {
			run := eval.Runs[app][pol]
			as.Policies = append(as.Policies, PolicySummary{
				Policy:        pol,
				TotalSeconds:  run.TotalTime,
				Speedup:       eval.Speedup(app, pol),
				ACV:           stats.ACV(run.TaskMatrix),
				MigratedPages: run.Migrated,
				MigSpreadMax:  run.MigMax,
				MigSpreadMin:  run.MigMin,
				AvgDRAMBwGBs:  AvgBandwidth(run, hm.DRAM),
				AvgPMBwGBs:    AvgBandwidth(run, hm.PM),
			})
		}
		s.Apps = append(s.Apps, as)
	}
	return s
}

// WriteJSON marshals the summary with indentation.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
