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

	trees       []*DecisionTree
	compiled    *CompiledForest
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
// ctx is done and the fit returns a canceled error without marking the
// model fitted. With a live context the trained forest is byte-identical
// to Fit.
func (f *RandomForest) FitContext(ctx context.Context, X [][]float64, y []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(X, y); err != nil {
		return err
	}
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
	f.fitted = true
	compiled, err := compileForest(f.trees, f.Config.Workers)
	if err != nil {
		f.fitted = false
		return err
	}
	f.compiled = compiled
	return nil
}

// Predict implements Regressor (mean of tree predictions) on the
// compiled node table; allocation-free.
func (f *RandomForest) Predict(x []float64) float64 {
	if !f.fitted {
		return 0
	}
	return f.compiled.Predict(x)
}

// PredictAll implements BatchRegressor through the compiled batch
// kernel: row chunks run concurrently, each chunk iterates trees in fit
// order over row blocks, so PredictAll(X)[i] == Predict(X[i])
// bit-for-bit while one tree's node table stays cache-hot per block.
func (f *RandomForest) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !f.fitted {
		return out
	}
	f.compiled.predictAllInto(X, out, f.Config.Workers)
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

	base        float64
	trees       []*DecisionTree
	compiled    *CompiledGBR
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

// FitContext implements ContextFitter: the context is checked between
// boosting stages, so cancellation aborts within one stage (one tree fit
// plus one residual pass) without marking the model fitted. With a live
// context the trained model is byte-identical to Fit.
func (g *GradientBoosted) FitContext(ctx context.Context, X [][]float64, y []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(X, y); err != nil {
		return err
	}
	defer g.Config.Obs.WallTimer("ml.gbr.fit_seconds").Start()()
	g.Config.Obs.Counter("ml.gbr.fits").Inc()
	n := len(X)
	d := len(X[0])
	rng := rand.New(rand.NewSource(g.Config.Seed))

	var sum float64
	for _, v := range y {
		sum += v
	}
	g.base = sum / float64(n)
	g.importances = make([]float64, d)

	residual := make([]float64, n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = g.base
	}
	g.trees = g.trees[:0]
	sampleSize := int(float64(n) * g.Config.Subsample)
	if sampleSize < 1 {
		sampleSize = 1
	}
	for stage := 0; stage < g.Config.NumStages; stage++ {
		if err := merr.FromContext(ctx, "ml: boosting canceled"); err != nil {
			return err
		}
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		bx, by := X, residual
		if sampleSize < n {
			idx := rng.Perm(n)[:sampleSize]
			bx = make([][]float64, sampleSize)
			by = make([]float64, sampleSize)
			for k, j := range idx {
				bx[k], by[k] = X[j], residual[j]
			}
		}
		tree := NewDecisionTree(TreeConfig{
			MaxDepth:       g.Config.MaxDepth,
			MinSamplesLeaf: g.Config.MinSamplesLeaf,
			Seed:           rng.Int63(),
		})
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		g.trees = append(g.trees, tree)
		for j, v := range tree.Importances() {
			g.importances[j] += v
		}
		// The residual update walks the new tree once per row through its
		// just-compiled table; rows are independent, so chunk them across
		// workers.
		parallelChunks(n, g.Config.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += g.Config.LearningRate * tree.flat.Predict(X[i])
			}
		})
	}
	var isum float64
	for _, v := range g.importances {
		isum += v
	}
	if isum > 0 {
		for i := range g.importances {
			g.importances[i] /= isum
		}
	}
	g.fitted = true
	compiled, err := compileGBR(g.base, g.Config.LearningRate, g.trees, g.Config.Workers)
	if err != nil {
		g.fitted = false
		return err
	}
	g.compiled = compiled
	return nil
}

// Predict implements Regressor on the compiled node table; aside from
// the observability counter it allocates nothing.
func (g *GradientBoosted) Predict(x []float64) float64 {
	if !g.fitted {
		return 0
	}
	g.predictions.Inc()
	return g.compiled.Predict(x)
}

// PredictAll implements BatchRegressor through the compiled batch
// kernel: row chunks run concurrently, each chunk accumulates the
// stages in fit order over row blocks, so PredictAll(X)[i] ==
// Predict(X[i]) bit-for-bit while one stage's node table stays
// cache-hot per block.
func (g *GradientBoosted) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if !g.fitted {
		return out
	}
	defer g.Config.Obs.WallTimer("ml.gbr.predict_seconds").Start()()
	g.predictions.Add(float64(len(X)))
	g.compiled.predictAllInto(X, out, g.Config.Workers)
	return out
}

// Importances implements Importancer.
func (g *GradientBoosted) Importances() []float64 {
	return append([]float64(nil), g.importances...)
}
