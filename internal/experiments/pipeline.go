package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"merchandiser/internal/apps"
	"merchandiser/internal/corpus"
	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/pmc"
	"merchandiser/internal/stats"
)

// PipelineOptions tunes RunPipeline beyond the shared Config.
type PipelineOptions struct {
	// CV additionally runs the k-fold feature-subset search as soon as
	// the trained model and the corpus are available, overlapped with the
	// evaluation matrix.
	CV bool
}

// PipelineResult is everything one pipelined run produces.
type PipelineResult struct {
	Artifacts *Artifacts
	Eval      *Eval
	// CV holds the feature-subset scores (nil unless PipelineOptions.CV).
	CV []CVResult
}

// RunPipeline is the pace-car pipelined form of Prepare followed by
// RunEvaluation: corpus simulation streams per-region batches into the
// boosting fitter, model-free evaluation cells launch immediately, and
// model-consuming cells (plus the optional CV search) start the moment
// fitting resolves — end-to-end wall time tracks the critical path
// instead of the sum of phases. One slot pool of cfg.Workers permits
// bounds the whole pipeline, so "Workers" means the same thing it does
// for Prepare and RunEvaluation. Results (artifacts, eval matrix, CV
// scores) are byte-identical for any worker count and to Prepare
// followed by RunEvaluation; the overlap changes only scheduling.
//
// Phase walls land in cfg.Obs as volatile timers:
// pipeline.train_seconds (corpus start → model ready),
// pipeline.eval_seconds, pipeline.e2e_seconds, corpus.stream_seconds
// and ml.gbr.fit_seconds. Overlap shows as train+eval exceeding e2e.
func RunPipeline(ctx context.Context, cfg Config, opts PipelineOptions) (*PipelineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer cfg.Obs.WallTimer("pipeline.e2e_seconds").Start()()
	pool := newSlotPool(cfg.workers())

	// art.Perf is allocated before any goroutine starts; the trainer
	// publishes the model by writing art.Perf.Corr and then closing
	// modelReady, so every reader of Corr is ordered after the write.
	art := &Artifacts{Spec: experimentSpec(), Perf: &model.PerfModel{}}
	modelReady := make(chan struct{})
	trainDone := make(chan error, 1)
	go func() {
		defer close(modelReady)
		trainDone <- train(ctx, art, cfg, pool)
	}()

	var (
		cvRes []CVResult
		cvErr error
		cvWG  sync.WaitGroup
	)
	if opts.CV {
		cvWG.Add(1)
		go func() {
			defer cvWG.Done()
			select {
			case <-modelReady:
			case <-ctx.Done():
				return
			}
			if art.Perf.Corr == nil {
				return // training failed; its error takes precedence
			}
			cvRes, cvErr = CVFeatureSearch(ctx, art, cfg, pool.acquire)
		}()
	}

	eval, evalErr := runEvaluationGated(ctx, art, cfg, pool, modelReady)
	trainErr := <-trainDone
	cvWG.Wait()

	if err := merr.FromContext(ctx, "experiments: pipeline canceled"); err != nil {
		return nil, err
	}
	if trainErr != nil {
		return nil, trainErr
	}
	if evalErr != nil {
		return nil, evalErr
	}
	if cvErr != nil {
		return nil, cvErr
	}
	return &PipelineResult{Artifacts: art, Eval: eval, CV: cvRes}, nil
}

// slotPool is a run's worker-slot pool: cfg.Workers permits shared by
// every stage (corpus producers, the fitter, evaluation lanes, CV
// folds). A stage holds a permit while it computes, never while it
// waits.
type slotPool chan struct{}

func newSlotPool(n int) slotPool {
	p := make(slotPool, n)
	for i := 0; i < n; i++ {
		p <- struct{}{}
	}
	return p
}

// acquire takes a permit and returns its release, or fails once ctx is
// done.
func (p slotPool) acquire(ctx context.Context) (func(), error) {
	select {
	case <-p:
		return func() { p <- struct{}{} }, nil
	case <-ctx.Done():
		return nil, merr.FromContext(ctx, "experiments: pipeline canceled")
	}
}

// experimentSpec is the evaluation platform (Table 1), unless a study
// substitutes its own through artifactsSpecHook.
func experimentSpec() hm.SystemSpec {
	if artifactsSpecHook != nil {
		return *artifactsSpecHook
	}
	return apps.ExperimentSpec()
}

// train is the training stage of Prepare and RunPipeline: corpus
// simulation streams per-region batches into the paced boosting fitter,
// both holding pool permits while they compute. On success it writes
// the trained correlation function into art.Perf.Corr, plus the corpus
// and held-out R²; art.Spec and art.Perf must already be set. The
// stage's wall lands in cfg.Obs as pipeline.train_seconds.
func train(ctx context.Context, art *Artifacts, cfg Config, pool slotPool) error {
	defer cfg.Obs.WallTimer("pipeline.train_seconds").Start()()
	nRegions, placements := 281, 10
	if cfg.Quick {
		nRegions, placements = 70, 6
	}
	regions := corpus.StandardCorpus(nRegions, cfg.Seed+1)
	workers := cfg.workers()
	stream := corpus.BuildStream(ctx, regions, trainSpec(art.Spec), corpus.BuildConfig{
		Placements: placements, StepSec: 0.001, Seed: cfg.Seed + 2, Workers: workers,
		Gate: pool.acquire, Obs: cfg.Obs,
	})
	gbr := ml.NewGradientBoosted(ml.GBRConfig{Seed: cfg.Seed + 3, Workers: workers, Obs: cfg.Obs})
	res, samples, err := model.TrainCorrelationStream(ctx, stream.C, stream.Wait, pmc.SelectedEvents, gbr,
		ml.PaceConfig{Groups: len(regions), Gate: pool.acquire}, cfg.Seed+4)
	if err != nil {
		return fmt.Errorf("experiments: training: %w", err)
	}
	art.Perf.Corr = res.Corr
	art.Samples = samples
	art.TestR2 = res.TestR2
	if reg := cfg.Obs; reg != nil {
		reg.Counter("pipeline.train_samples").Add(float64(len(samples)))
		reg.Gauge("pipeline.correlation_r2").Set(res.TestR2)
	}
	return nil
}

// CVResult is one event-subset candidate scored by k-fold
// cross-validation of the correlation function.
type CVResult struct {
	Events int      `json:"events"`
	Names  []string `json:"names"`
	MeanR2 float64  `json:"mean_r2"`
}

// cvFolds is the fold count of the feature-subset search.
const cvFolds = 3

// CVFeatureSearch ranks the trained model's hardware events by Gini
// importance and scores nested prefixes (all events, then 6, 4, 2) with
// k-fold cross-validation over the training corpus — the
// feature-selection counterpart of Figure 7 run as a pipeline stage.
// gate, when non-nil, is acquired around each fold's fit so the search
// shares the pipeline's worker-slot pool. Results depend only on
// (corpus, seed), never on scheduling.
func CVFeatureSearch(ctx context.Context, art *Artifacts, cfg Config, gate func(context.Context) (func(), error)) ([]CVResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if art == nil || art.Perf == nil || art.Perf.Corr == nil || len(art.Samples) == 0 {
		return nil, errors.New("experiments: CV search needs a trained model and the training corpus")
	}
	imp, ok := art.Perf.Corr.Model.(ml.Importancer)
	if !ok {
		return nil, errors.New("experiments: CV search needs a model with feature importances")
	}
	events := art.Perf.Corr.Events
	weights := imp.Importances() // one per event, plus the trailing R_DRAM column
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	X, y := corpus.Matrix(art.Samples, events)
	rdramCol := len(events)
	var sizes []int
	for k := len(events); k >= 2; k -= 2 {
		sizes = append(sizes, k)
	}

	var out []CVResult
	for _, k := range sizes {
		cols := append(append([]int(nil), order[:k]...), rdramCol)
		names := make([]string, k)
		for i, c := range order[:k] {
			names[i] = events[c]
		}
		proj := ml.ProjectColumns(X, cols)
		var sum float64
		for fold := 0; fold < cvFolds; fold++ {
			if err := merr.FromContext(ctx, "experiments: CV search canceled"); err != nil {
				return nil, err
			}
			release := func() {}
			if gate != nil {
				r, err := gate(ctx)
				if err != nil {
					return nil, err
				}
				release = r
			}
			var xtr, xte [][]float64
			var ytr, yte []float64
			for i := range proj {
				if i%cvFolds == fold {
					xte = append(xte, proj[i])
					yte = append(yte, y[i])
				} else {
					xtr = append(xtr, proj[i])
					ytr = append(ytr, y[i])
				}
			}
			gbr := ml.NewGradientBoosted(ml.GBRConfig{Seed: cfg.Seed + 8, Workers: cfg.Workers})
			err := ml.Fit(ctx, gbr, xtr, ytr)
			if err == nil {
				var pred []float64
				pred = gbr.PredictAll(xte)
				var r2 float64
				r2, err = stats.R2(yte, pred)
				sum += r2
			}
			release()
			if err != nil {
				return nil, err
			}
		}
		out = append(out, CVResult{Events: k, Names: names, MeanR2: sum / cvFolds})
	}
	return out, nil
}
