package model

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"merchandiser/internal/corpus"
	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
	"merchandiser/internal/pmc"
)

// streamTrain runs the full streamed training pipeline — BuildStream
// feeding TrainCorrelationStream — at the given worker count and
// returns the result plus the fitted model's flat form.
func streamTrain(t *testing.T, workers int) (*TrainResult, []corpus.Sample, *ml.FlatModel) {
	t.Helper()
	regions := corpus.StandardCorpus(40, 3)
	stream := corpus.BuildStream(context.Background(), regions, smallSpec(),
		corpus.BuildConfig{Placements: 4, StepSec: 0.002, Seed: 2, Workers: workers})
	gbr := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 40, Seed: 3, Workers: workers})
	res, samples, err := TrainCorrelationStream(context.Background(), stream.C, stream.Wait,
		pmc.SelectedEvents, gbr, ml.PaceConfig{Groups: len(regions)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := ml.DumpFlat(gbr)
	if err != nil {
		t.Fatal(err)
	}
	return res, samples, dump
}

// TestTrainCorrelationStreamDeterministic: the streamed trainer is
// byte-identical across worker counts — same samples, same 70/30
// split, same fitted trees, same R² numbers.
func TestTrainCorrelationStreamDeterministic(t *testing.T) {
	res1, samples1, dump1 := streamTrain(t, 1)
	res4, samples4, dump4 := streamTrain(t, 4)

	if !reflect.DeepEqual(samples1, samples4) {
		t.Fatal("streamed corpus differs between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(dump1, dump4) {
		t.Fatal("fitted model differs between Workers=1 and Workers=4")
	}
	if res1.TrainR2 != res4.TrainR2 || res1.TestR2 != res4.TestR2 || res1.Samples != res4.Samples {
		t.Fatalf("train results differ: %+v vs %+v", res1, res4)
	}
	if res1.Samples != len(samples1) {
		t.Fatalf("result reports %d samples, stream delivered %d", res1.Samples, len(samples1))
	}
	if res1.TestR2 < 0.5 {
		t.Fatalf("held-out R² = %.3f, model did not learn", res1.TestR2)
	}
}

// TestTrainCorrelationStreamCancel: cancelling mid-stream unwinds the
// producer, the split loop, and the fitter, and reports cancellation.
func TestTrainCorrelationStreamCancel(t *testing.T) {
	regions := corpus.StandardCorpus(60, 5)
	ctx, cancel := context.WithCancel(context.Background())
	var gate atomic.Int64 // the gate runs concurrently on every worker
	cfg := corpus.BuildConfig{Placements: 4, StepSec: 0.002, Seed: 2, Workers: 4,
		Gate: func(context.Context) (func(), error) {
			if gate.Add(1) == 5 {
				cancel()
			}
			return func() {}, nil
		}}
	stream := corpus.BuildStream(ctx, regions, smallSpec(), cfg)
	gbr := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 40, Seed: 3})
	_, _, err := TrainCorrelationStream(ctx, stream.C, stream.Wait,
		pmc.SelectedEvents, gbr, ml.PaceConfig{Groups: len(regions)}, 6)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("streamed training under cancellation = %v, want context.Canceled", err)
	}
}

// TestTrainCorrelationStreamTooFewSamples: a tiny corpus is rejected
// with ErrUntrained rather than fitting a junk model.
func TestTrainCorrelationStreamTooFewSamples(t *testing.T) {
	batches := make(chan corpus.RegionBatch, 1)
	batches <- corpus.RegionBatch{Index: 0, Region: "r0", Samples: []corpus.Sample{{}}}
	close(batches)
	gbr := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 5, Seed: 1})
	_, _, err := TrainCorrelationStream(context.Background(), batches, func() error { return nil },
		pmc.SelectedEvents, gbr, ml.PaceConfig{Groups: 1}, 6)
	if !errors.Is(err, merr.ErrUntrained) {
		t.Fatalf("undersized corpus = %v, want ErrUntrained", err)
	}
}

// TestTrainCorrelationStreamBuildError: a failing producer's error wins
// over the fitter's secondary feed-closed error.
func TestTrainCorrelationStreamBuildError(t *testing.T) {
	boom := errors.New("simulated build failure")
	batches := make(chan corpus.RegionBatch)
	close(batches)
	gbr := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 5, Seed: 1})
	_, _, err := TrainCorrelationStream(context.Background(), batches, func() error { return boom },
		pmc.SelectedEvents, gbr, ml.PaceConfig{Groups: 10}, 6)
	if !errors.Is(err, boom) {
		t.Fatalf("failed build = %v, want the build error", err)
	}
}
