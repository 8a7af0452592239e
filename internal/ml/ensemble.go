package ml

import (
	"context"
	"math/rand"

	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
)

// ForestConfig configures a random forest (Table 3: n_estimators=20,
// max_depth=10).
type ForestConfig struct {
	NumTrees       int
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures per split; 0 means d/3 (the regression default).
	MaxFeatures int
	Seed        int64
	// Workers bounds how many trees are fitted (and how many prediction
	// row chunks run) concurrently; 0 uses runtime.NumCPU(). The fitted
	// model is identical for any value: bootstrap resamples and tree seeds
	// are drawn sequentially before the pool starts.
	Workers int
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 20
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	return c
}

// RandomForest bags variance-reduction trees over bootstrap resamples
// with per-split feature subsampling.
type RandomForest struct {
	Config ForestConfig

	trees []*DecisionTree
	// tab holds every tree in fit order; it is what Predict walks.
	tab         nodeTable
	importances []float64
	fitted      bool
}

// NewRandomForest builds an unfitted forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	return &RandomForest{Config: cfg.withDefaults()}
}

// Name implements Regressor.
func (f *RandomForest) Name() string { return "RFR" }

// Fit implements Regressor.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	return f.FitContext(context.Background(), X, y)
}

// FitContext implements ContextFitter: workers stop claiming trees once
// ctx is done and the fit returns a canceled error, leaving the model
// unfitted. With a live context the trained forest is byte-identical to
// Fit.
func (f *RandomForest) FitContext(ctx context.Context, X [][]float64, y []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(X, y); err != nil {
		return err
	}
	f.fitted = false
	d := len(X[0])
	maxFeatures := f.Config.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = (d + 2) / 3
	}
	rng := rand.New(rand.NewSource(f.Config.Seed))
	f.trees = make([]*DecisionTree, f.Config.NumTrees)
	f.importances = make([]float64, d)
	n := len(X)
	// Draw every tree's bootstrap resample and split seed sequentially (in
	// the same rng order as a serial fit), then fit the trees on a worker
	// pool: the model is byte-identical for any Workers value.
	resampleX := make([][][]float64, f.Config.NumTrees)
	resampleY := make([][]float64, f.Config.NumTrees)
	seeds := make([]int64, f.Config.NumTrees)
	for t := range f.trees {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i], by[i] = X[j], y[j]
		}
		resampleX[t], resampleY[t] = bx, by
		seeds[t] = rng.Int63()
	}
	errs := make([]error, f.Config.NumTrees)
	parallelChunks(f.Config.NumTrees, f.Config.Workers, func(lo, hi int) {
		for t := lo; t < hi && ctx.Err() == nil; t++ {
			tree := NewDecisionTree(TreeConfig{
				MaxDepth:       f.Config.MaxDepth,
				MinSamplesLeaf: f.Config.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
				Seed:           seeds[t],
			})
			if err := tree.Fit(resampleX[t], resampleY[t]); err != nil {
				errs[t] = err
				continue
			}
			f.trees[t] = tree
		}
	})
	if err := merr.FromContext(ctx, "ml: forest fit canceled"); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Accumulate importances in tree order so the float sums match a
	// serial fit exactly.
	for _, tree := range f.trees {
		for j, v := range tree.Importances() {
			f.importances[j] += v
		}
	}
	var sum float64
	for _, v := range f.importances {
		sum += v
	}
	if sum > 0 {
		for i := range f.importances {
			f.importances[i] /= sum
		}
	}
	f.tab = ensembleTable(f.trees)
	f.fitted = true
	return nil
}

// Predict implements Regressor (mean of tree predictions) on the node
// table; allocation-free.
func (f *RandomForest) Predict(x []float64) float64 {
	if !f.fitted {
		return 0
	}
	return f.tab.accumulate(0, 1, x) / float64(len(f.tab.roots))
}

// PredictAll implements BatchRegressor: row chunks run concurrently,
// and each row is Predict's own walk, so PredictAll(X)[i] ==
// Predict(X[i]) by construction.
func (f *RandomForest) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !f.fitted {
		return out
	}
	parallelChunks(len(X), f.Config.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Predict(X[i])
		}
	})
	return out
}

// Importances implements Importancer.
func (f *RandomForest) Importances() []float64 {
	return append([]float64(nil), f.importances...)
}

// GBRConfig configures gradient boosting (Table 3: base_estimator=DTR).
type GBRConfig struct {
	NumStages      int
	LearningRate   float64
	MaxDepth       int
	MinSamplesLeaf int
	// Subsample is the row fraction per stage (stochastic gradient
	// boosting); 1 uses all rows.
	Subsample float64
	Seed      int64
	// Workers bounds the concurrency of the per-stage residual update and
	// of PredictAll row chunks; 0 uses runtime.NumCPU(). Stages themselves
	// are inherently sequential, and each row's update is independent, so
	// the fitted model is identical for any value.
	Workers int
	// Obs, when non-nil, receives fit/predict counts plus wall-clock fit
	// and predict timers. The timers are volatile (excluded from
	// deterministic snapshots); the counts are deterministic.
	Obs *obs.Registry
}

func (c GBRConfig) withDefaults() GBRConfig {
	if c.NumStages <= 0 {
		c.NumStages = 150
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.08
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	return c
}

// GradientBoosted is least-squares gradient boosting: shallow CART trees
// fitted to residuals, shrunk by the learning rate. The paper selects it
// as Merchandiser's correlation function f(·).
type GradientBoosted struct {
	Config GBRConfig

	base  float64
	trees []*DecisionTree
	// tab holds every stage's tree in fit order; it is what Predict walks.
	tab         nodeTable
	importances []float64
	fitted      bool
	// predictions is resolved once at construction so the per-call cost of
	// counting Predict/PredictAll rows is a nil check plus an atomic add.
	predictions *obs.Counter
}

// NewGradientBoosted builds an unfitted GBR.
func NewGradientBoosted(cfg GBRConfig) *GradientBoosted {
	cfg = cfg.withDefaults()
	return &GradientBoosted{Config: cfg, predictions: cfg.Obs.Counter("ml.gbr.predictions")}
}

// Name implements Regressor.
func (g *GradientBoosted) Name() string { return "GBR" }

// Fit implements Regressor.
func (g *GradientBoosted) Fit(X [][]float64, y []float64) error {
	return g.FitContext(context.Background(), X, y)
}

// FitContext implements ContextFitter by running FitPaced over a feed
// that holds all rows as one group: the context is checked between
// boosting stages, so cancellation aborts within one stage (one tree fit
// plus one residual pass) and leaves the model unfitted. With a live
// context the trained model is byte-identical to Fit.
func (g *GradientBoosted) FitContext(ctx context.Context, X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	feed := NewFeed()
	if err := feed.Push(X, y); err != nil {
		return err
	}
	feed.Close(nil)
	return g.FitPaced(ctx, feed, PaceConfig{Groups: 1, Ramp: -1})
}

// Predict implements Regressor on the node table, accumulating the
// stages in fit order; aside from the observability counter it
// allocates nothing.
func (g *GradientBoosted) Predict(x []float64) float64 {
	if !g.fitted {
		return 0
	}
	g.predictions.Inc()
	return g.tab.accumulate(g.base, g.Config.LearningRate, x)
}

// PredictAll implements BatchRegressor: row chunks run concurrently,
// and each row is Predict's own accumulation, so PredictAll(X)[i] ==
// Predict(X[i]) by construction. The rows are counted once per call.
func (g *GradientBoosted) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !g.fitted {
		return out
	}
	defer g.Config.Obs.WallTimer("ml.gbr.predict_seconds").Start()()
	g.predictions.Add(float64(len(X)))
	parallelChunks(len(X), g.Config.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = g.tab.accumulate(g.base, g.Config.LearningRate, X[i])
		}
	})
	return out
}

// Importances implements Importancer.
func (g *GradientBoosted) Importances() []float64 {
	return append([]float64(nil), g.importances...)
}
