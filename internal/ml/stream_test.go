package ml

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"merchandiser/internal/merr"
)

// synthGroups builds deterministic grouped training data: nGroups
// groups of rowsPer rows over 3 features with a nonlinear target.
func synthGroups(nGroups, rowsPer int, seed int64) (X [][][]float64, y [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < nGroups; g++ {
		var gx [][]float64
		var gy []float64
		for i := 0; i < rowsPer; i++ {
			row := []float64{rng.Float64(), rng.Float64() * 2, rng.NormFloat64()}
			gx = append(gx, row)
			gy = append(gy, row[0]*row[1]+0.3*row[2]+0.05*rng.NormFloat64())
		}
		X = append(X, gx)
		y = append(y, gy)
	}
	return X, y
}

func flatten(X [][][]float64, y [][]float64) ([][]float64, []float64) {
	var fx [][]float64
	var fy []float64
	for g := range X {
		fx = append(fx, X[g]...)
		fy = append(fy, y[g]...)
	}
	return fx, fy
}

func pushAll(t *testing.T, f *Feed, X [][][]float64, y [][]float64) {
	t.Helper()
	for g := range X {
		if err := f.Push(X[g], y[g]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPaceScheduleProperties(t *testing.T) {
	const stages, groups = 150, 281
	prev := 0
	for s := 0; s < stages; s++ {
		g := PaceSchedule(s, stages, groups, 1.0/3)
		if g < 1 || g > groups {
			t.Fatalf("stage %d: schedule %d out of [1, %d]", s, g, groups)
		}
		if g < prev {
			t.Fatalf("stage %d: schedule %d < previous %d (must be monotone)", s, g, prev)
		}
		prev = g
	}
	if prev != groups {
		t.Fatalf("final stage sees %d groups, want all %d", prev, groups)
	}
	// The ramp finishes at ceil(ramp*stages): every later stage is full.
	if g := PaceSchedule(49, stages, groups, 1.0/3); g != groups {
		t.Fatalf("post-ramp stage sees %d, want %d", g, groups)
	}
	// ramp <= 0 disables pacing.
	if g := PaceSchedule(0, stages, groups, -1); g != groups {
		t.Fatalf("unpaced stage 0 sees %d, want %d", g, groups)
	}
}

// TestFeedRowsExactPrefix: Rows returns exactly the requested group
// prefix, in push order — the fitter can never observe samples out of
// region order or beyond the prefix it asked for.
func TestFeedRowsExactPrefix(t *testing.T) {
	X, y := synthGroups(6, 4, 11)
	feed := NewFeed()
	pushAll(t, feed, X, y)
	feed.Close(nil)
	for k := 1; k <= 6; k++ {
		gx, gy, got, err := feed.Rows(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("Rows(%d) covered %d groups", k, got)
		}
		wantX, wantY := flatten(X[:k], y[:k])
		if !reflect.DeepEqual(gx, wantX) || !reflect.DeepEqual(gy, wantY) {
			t.Fatalf("Rows(%d) is not the exact prefix in push order", k)
		}
	}
}

// TestFitPacedUnpacedMatchesFit: with pacing disabled (Ramp < 0) and a
// fully delivered feed, FitPaced is bit-identical to Fit on the
// concatenated rows — the differential anchor for the streaming path.
func TestFitPacedUnpacedMatchesFit(t *testing.T) {
	X, y := synthGroups(8, 6, 21)
	fx, fy := flatten(X, y)
	cfg := GBRConfig{NumStages: 40, Seed: 5}

	ref := NewGradientBoosted(cfg)
	if err := ref.Fit(fx, fy); err != nil {
		t.Fatal(err)
	}
	feed := NewFeed()
	pushAll(t, feed, X, y)
	feed.Close(nil)
	paced := NewGradientBoosted(cfg)
	if err := paced.FitPaced(context.Background(), feed, PaceConfig{Groups: 8, Ramp: -1}); err != nil {
		t.Fatal(err)
	}
	refDump, err := DumpFlat(ref)
	if err != nil {
		t.Fatal(err)
	}
	pacedDump, err := DumpFlat(paced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refDump, pacedDump) {
		t.Fatal("unpaced FitPaced differs from Fit on identical rows")
	}
}

// TestFitPacedDeterministicAcrossTimingAndWorkers: the paced fit is a
// pure function of (data, config) — trickling groups in slowly, pushing
// them all upfront, and changing Workers all yield the same model.
func TestFitPacedDeterministicAcrossTimingAndWorkers(t *testing.T) {
	X, y := synthGroups(10, 6, 31)
	cfgFor := func(workers int) GBRConfig {
		return GBRConfig{NumStages: 30, Seed: 9, Workers: workers}
	}
	pace := PaceConfig{Groups: 10, MinRows: 1}

	fitInstant := func(workers int) *FlatModel {
		feed := NewFeed()
		pushAll(t, feed, X, y)
		feed.Close(nil)
		g := NewGradientBoosted(cfgFor(workers))
		if err := g.FitPaced(context.Background(), feed, pace); err != nil {
			t.Fatal(err)
		}
		d, err := DumpFlat(g)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fitTrickle := func() *FlatModel {
		feed := NewFeed()
		go func() {
			for g := range X {
				time.Sleep(2 * time.Millisecond)
				if err := feed.Push(X[g], y[g]); err != nil {
					feed.Close(err)
					return
				}
			}
			feed.Close(nil)
		}()
		g := NewGradientBoosted(cfgFor(2))
		if err := g.FitPaced(context.Background(), feed, pace); err != nil {
			t.Fatal(err)
		}
		d, err := DumpFlat(g)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	ref := fitInstant(1)
	if !reflect.DeepEqual(ref, fitInstant(4)) {
		t.Fatal("paced fit differs between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(ref, fitTrickle()) {
		t.Fatal("paced fit depends on group arrival timing")
	}
}

// TestFitPacedNeverOutrunsSchedule: at every boosting stage the feed
// must already hold at least the stage's scheduled prefix — the fitter
// never runs ahead of the pace car.
func TestFitPacedNeverOutrunsSchedule(t *testing.T) {
	X, y := synthGroups(12, 5, 41)
	feed := NewFeed()
	go func() {
		for g := range X {
			time.Sleep(time.Millisecond)
			if err := feed.Push(X[g], y[g]); err != nil {
				feed.Close(err)
				return
			}
		}
		feed.Close(nil)
	}()
	const stages = 24
	var groupsAtStage []int
	pc := PaceConfig{
		Groups:  12,
		MinRows: 1,
		Gate: func(ctx context.Context) (func(), error) {
			// The gate runs once per stage, after the stage's prefix wait.
			groupsAtStage = append(groupsAtStage, feed.Groups())
			return func() {}, nil
		},
	}
	g := NewGradientBoosted(GBRConfig{NumStages: stages, Seed: 3})
	if err := g.FitPaced(context.Background(), feed, pc); err != nil {
		t.Fatal(err)
	}
	if len(groupsAtStage) != stages {
		t.Fatalf("gate ran %d times, want one per stage (%d)", len(groupsAtStage), stages)
	}
	for s, got := range groupsAtStage {
		if want := PaceSchedule(s, stages, 12, 1.0/3); got < want {
			t.Fatalf("stage %d started with %d groups available, schedule requires %d", s, got, want)
		}
	}
}

// TestFitPacedCancellationAndProducerError: a canceled context unblocks
// a fitter waiting on the feed, and a producer error pushed through
// Close surfaces from FitPaced.
func TestFitPacedCancellationAndProducerError(t *testing.T) {
	X, y := synthGroups(2, 6, 51)

	ctx, cancel := context.WithCancel(context.Background())
	feed := NewFeed()
	pushAll(t, feed, X, y) // far fewer groups than the schedule wants
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	g := NewGradientBoosted(GBRConfig{NumStages: 20, Seed: 1})
	err := g.FitPaced(ctx, feed, PaceConfig{Groups: 40, MinRows: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FitPaced under cancellation = %v, want context.Canceled", err)
	}

	boom := errors.New("simulated producer failure")
	feed2 := NewFeed()
	pushAll(t, feed2, X, y)
	feed2.Close(boom)
	g2 := NewGradientBoosted(GBRConfig{NumStages: 20, Seed: 1})
	if err := g2.FitPaced(context.Background(), feed2, PaceConfig{Groups: 40, MinRows: 1}); !errors.Is(err, boom) {
		t.Fatalf("FitPaced with failed producer = %v, want the producer's error", err)
	}

	// A clean-but-short feed is an error, not a silent small-model fit.
	feed3 := NewFeed()
	pushAll(t, feed3, X, y)
	feed3.Close(nil)
	g3 := NewGradientBoosted(GBRConfig{NumStages: 20, Seed: 1})
	err = g3.FitPaced(context.Background(), feed3, PaceConfig{Groups: 40, MinRows: 1})
	if err == nil || errors.Is(err, merr.ErrUntrained) {
		t.Fatalf("short feed: got %v, want a feed-closed-early error", err)
	}
}
