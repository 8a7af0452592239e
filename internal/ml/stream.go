package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"merchandiser/internal/merr"
)

// Feed is an append-only streaming training set: a producer pushes
// completed row groups (one per corpus region, in region order) and a
// paced fitter blocks until the prefix it needs has arrived. Rows are
// only ever appended, so the slices Rows returns stay valid as later
// groups land.
type Feed struct {
	mu       sync.Mutex
	cond     *sync.Cond
	x        [][]float64
	y        []float64
	groupEnd []int // cumulative row count after each pushed group
	dim      int
	closed   bool
	err      error
}

// NewFeed returns an empty open feed.
func NewFeed() *Feed {
	f := &Feed{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Push appends one completed group (possibly empty — a region that
// contributed no samples still counts toward the group sequence). All
// rows across all groups must share one feature dimension, and every
// value must be finite: a paced fit validates only its first prefix, so
// the feed is where later groups are checked. Rows are numbered across
// the whole feed.
func (f *Feed) Push(X [][]float64, y []float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("ml: push on closed feed")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: group has %d rows but %d targets", len(X), len(y))
	}
	for i, r := range X {
		if f.dim == 0 {
			f.dim = len(r)
		}
		if len(r) != f.dim || len(r) == 0 {
			return fmt.Errorf("ml: row has %d features, want %d", len(r), f.dim)
		}
		if err := checkFinite(len(f.x)+i, r, y[i]); err != nil {
			return err
		}
	}
	f.x = append(f.x, X...)
	f.y = append(f.y, y...)
	f.groupEnd = append(f.groupEnd, len(f.x))
	f.cond.Broadcast()
	return nil
}

// Close ends the stream. A non-nil err (the producer failed or was
// canceled) is surfaced by every later Rows call. Close is idempotent;
// the first error wins.
func (f *Feed) Close(err error) {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		f.err = err
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Groups returns how many groups have been pushed so far.
func (f *Feed) Groups() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.groupEnd)
}

// Rows blocks until at least wantGroups groups have arrived, then
// returns exactly that prefix (rows of groups [0, wantGroups)) along
// with the group count actually covered. If the feed closes first, Rows
// returns the producer's error, or — when the producer finished clean
// but short — whatever prefix exists with groups < wantGroups. The
// returned slices are stable snapshots: the feed never mutates pushed
// rows.
func (f *Feed) Rows(ctx context.Context, wantGroups int) (X [][]float64, y []float64, groups int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if wantGroups < 1 {
		wantGroups = 1
	}
	stop := context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.groupEnd) < wantGroups && !f.closed && ctx.Err() == nil {
		f.cond.Wait()
	}
	if err := merr.FromContext(ctx, "ml: paced fit canceled"); err != nil {
		return nil, nil, 0, err
	}
	if f.err != nil {
		return nil, nil, 0, f.err
	}
	groups = len(f.groupEnd)
	if groups > wantGroups {
		groups = wantGroups
	}
	if groups == 0 {
		return nil, nil, 0, nil
	}
	end := f.groupEnd[groups-1]
	return f.x[:end:end], f.y[:end:end], groups, nil
}

// PaceSchedule is the deterministic pace-car schedule of a paced fit: it
// returns how many leading groups stage `stage` (0-based, of `stages`)
// trains on, given `groups` total groups. The first ceil(ramp·stages)
// stages ramp linearly from groups/rampStages up to all groups; every
// later stage sees everything. ramp <= 0 disables pacing (all groups at
// every stage). The schedule depends only on these four arguments —
// never on timing — which is why paced fits are reproducible across
// worker counts.
func PaceSchedule(stage, stages, groups int, ramp float64) int {
	if groups <= 0 {
		return 0
	}
	if ramp <= 0 || stages <= 0 {
		return groups
	}
	rampStages := int(math.Ceil(ramp * float64(stages)))
	if rampStages < 1 {
		rampStages = 1
	}
	if stage >= rampStages-1 {
		return groups
	}
	g := int(math.Ceil(float64(groups) * float64(stage+1) / float64(rampStages)))
	if g < 1 {
		g = 1
	}
	if g > groups {
		g = groups
	}
	return g
}

// PacedFitter is a model that can train over a streaming Feed with a
// pace-car schedule (today: GradientBoosted).
type PacedFitter interface {
	Regressor
	FitPaced(ctx context.Context, feed *Feed, pc PaceConfig) error
}

// PaceConfig parameterizes GradientBoosted.FitPaced.
type PaceConfig struct {
	// Groups is the total group (region) count the feed will deliver.
	// Required upfront: the pace schedule must be a pure function of the
	// data layout, not of arrival timing.
	Groups int
	// Ramp is the fraction of boosting stages that train on a growing
	// prefix of the feed; 0 means the default 1/3, negative disables
	// pacing entirely (every stage waits for the full feed and trains on
	// all of it — how FitContext runs FitPaced over its one group).
	Ramp float64
	// MinRows floors the prefix row count: a stage whose scheduled prefix
	// has fewer rows deterministically extends the prefix group by group
	// until the floor is met or the feed is exhausted. 0 means 32.
	MinRows int
	// Gate, when non-nil, is acquired around each boosting stage. The
	// pipelined trainer uses it to share one worker-slot pool with the
	// corpus producers. It is acquired only after the stage's prefix is
	// already available, so a fitter waiting on the feed never holds a
	// slot the producers need.
	Gate func(ctx context.Context) (release func(), err error)
}

// FitPaced trains the GBR over a streaming Feed without waiting for the
// full corpus: boosting stage s fits its tree on the residuals of the
// prefix PaceSchedule(s, ...) groups, so early stages start while later
// regions are still simulating and the pace schedule — not wall-clock
// arrival order — decides what each stage sees. The fitted model is a
// pure function of (feed contents, config): byte-identical across
// worker counts and consumer pacing. With Ramp < 0 every stage trains on
// the whole feed; FitContext is this loop over a one-group feed. A fit
// that fails or is canceled leaves the model unfitted.
func (g *GradientBoosted) FitPaced(ctx context.Context, feed *Feed, pc PaceConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if feed == nil {
		return errors.New("ml: paced fit needs a feed")
	}
	if pc.Groups <= 0 {
		return errors.New("ml: paced fit needs the total group count upfront")
	}
	ramp := pc.Ramp
	if ramp == 0 {
		ramp = 1.0 / 3
	}
	minRows := pc.MinRows
	if minRows <= 0 {
		minRows = 32
	}

	defer g.Config.Obs.WallTimer("ml.gbr.fit_seconds").Start()()
	g.Config.Obs.Counter("ml.gbr.fits").Inc()

	rng := rand.New(rand.NewSource(g.Config.Seed))
	g.trees = g.trees[:0]
	g.fitted = false

	var (
		X        [][]float64
		y        []float64
		pred     []float64
		residual []float64
		haveBase bool
		seen     int // rows already caught up in pred
		prevWant int
	)
	for stage := 0; stage < g.Config.NumStages; stage++ {
		if err := merr.FromContext(ctx, "ml: boosting canceled"); err != nil {
			return err
		}
		want := PaceSchedule(stage, g.Config.NumStages, pc.Groups, ramp)
		if want < prevWant {
			want = prevWant
		}
		for {
			gx, gy, got, err := feed.Rows(ctx, want)
			if err != nil {
				return err
			}
			if got < want {
				return fmt.Errorf("ml: feed closed after %d of %d groups", got, pc.Groups)
			}
			X, y = gx, gy
			if len(X) >= minRows || want >= pc.Groups {
				break
			}
			want++ // deterministic MinRows floor: widen the prefix
		}
		prevWant = want

		// The slot gate comes after the feed wait on purpose: holding a
		// shared worker slot while blocked on upstream simulation would
		// starve the very producers this stage is waiting for.
		release := func() {}
		if pc.Gate != nil {
			r, err := pc.Gate(ctx)
			if err != nil {
				return err
			}
			release = r
		}

		n := len(X)
		if !haveBase {
			if err := validate(X, y); err != nil {
				release()
				return err
			}
			var sum float64
			for _, v := range y {
				sum += v
			}
			g.base = sum / float64(n)
			g.importances = make([]float64, len(X[0]))
			haveBase = true
		}
		// Catch newly arrived rows up to the current ensemble. The
		// accumulation runs in tree order — the same float association an
		// incremental update would have used — so a row's prediction does
		// not depend on which stage it arrived at.
		for i := seen; i < n; i++ {
			p := g.base
			for _, t := range g.trees {
				p += g.Config.LearningRate * t.Predict(X[i])
			}
			pred = append(pred, p)
		}
		seen = n

		for len(residual) < n {
			residual = append(residual, 0)
		}
		for i := 0; i < n; i++ {
			residual[i] = y[i] - pred[i]
		}
		bx, by := X, residual[:n]
		sampleSize := int(float64(n) * g.Config.Subsample)
		if sampleSize < 1 {
			sampleSize = 1
		}
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
			release()
			return err
		}
		g.trees = append(g.trees, tree)
		for j, v := range tree.Importances() {
			g.importances[j] += v
		}
		parallelChunks(n, g.Config.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += g.Config.LearningRate * tree.Predict(X[i])
			}
		})
		release()
	}
	if !haveBase {
		return errors.New("ml: empty training set")
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
	g.tab = ensembleTable(g.trees)
	g.fitted = true
	return nil
}
