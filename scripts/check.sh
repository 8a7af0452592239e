#!/bin/sh
# Repo health check: gate on formatting, vet everything, then run the
# concurrency-bearing packages (root session pipeline, corpus worker
# pool, parallel ml fitting, memoized placement, the per-application
# evaluation lanes sharing one slot pool, observability registries
# shared across workers, the serving
# daemon's planner and the epoch re-plan lifecycle) under the race
# detector, hold the compiled
# inference engine (one fixed-depth walk per tree, the only way the node
# table scores a full feature vector) to zero allocations per
# single-point predict and per split-index evaluation
# (TestSplitIndexPredictZeroAllocs: the planners' miss path) and smoke
# its pointer-vs-compiled benchmarks, the
# index-vs-walk BenchmarkSplitIndex, the planner benchmarks, the
# RMAT generator benchmark, the BFS and SpGEMM construction benchmarks
# and the migration daemon's tick benchmark,
# smoke the flat-table loader, split-index
# (FuzzSplitIndexMatchesPredict: index vs walk, with every feature as
# the varied one), event-encoder,
# artifact-decoder and binary-slot-decoder fuzz targets
# on their seed corpora plus 10s of new inputs each, run the end-to-end
# save/load/serve smoke (binary-format artifact, boot-to-ready timed)
# against a real
# merchserved process, run the fleet smoke (registry publish/promote,
# two registry-backed replicas behind merchgate, zero-drop SIGHUP
# reload, then a second cache-enabled leg asserting zero stale
# responses and a nonzero gate hit rate across the promotion), hold the
# response-cache hot path (canonical hash + LRU lookup) to zero
# allocations, smoke the canonical-encoding fuzz target and
# FuzzGateCacheMatchesReplica (a cache-enabled gate answers every body
# with the status and bytes its replica would), hold
# internal/obs to a coverage floor, and vet and short-test the
# benchmark (perfbench is its own module, so `go test ./...` never
# builds it; this stanza catches library changes that break it). Every
# test invocation gets a per-package timeout (60s plain, 600s for the
# ~10x-slower race tier, 300s for the benchmark module) so a hung run
# fails instead of wedging CI.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== layering (the fleet binaries do not link internal/experiments)"
# merchgate and merchserved serve requests; the paper's experiment
# matrix, its workloads and their simulators belong to merchbench.
if go list -deps ./cmd/merchgate ./cmd/merchserved | grep -qx 'merchandiser/internal/experiments'; then
	echo "a fleet binary links merchandiser/internal/experiments; importers:" >&2
	go list -f '{{.ImportPath}}: {{join .Imports " "}}' -deps ./cmd/merchgate ./cmd/merchserved |
		grep 'merchandiser/internal/experiments' >&2
	exit 1
fi

echo "== govulncheck (best effort)"
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck reported findings (non-blocking)"
else
	echo "govulncheck not installed; skipping"
fi

echo "== go test ./... (60s per-package timeout)"
go test -timeout 60s ./...

echo "== go test -race (root session pipeline + corpus, ml, placement, experiments, obs, hm, task, store, serve, model, registry, gate, rcache)"
# The race detector slows the evaluation matrix ~10x, so this tier gets a
# scaled bound; it still fails fast on a genuine hang.
go test -race -timeout 600s . ./internal/corpus ./internal/ml ./internal/placement \
	./internal/experiments ./internal/obs ./internal/hm ./internal/task \
	./internal/store ./internal/serve ./internal/model \
	./internal/registry ./internal/gate ./internal/rcache

echo "== pipeline race tier (streaming corpus -> paced fit -> pipelined eval)"
# The pace-car pipeline is the repo's densest channel topology: corpus
# producers, the batch sequencer, the streaming Feed, the paced fitter
# and the gated evaluation lanes all share one slot pool. Run exactly
# those paths under the race detector, including the mid-stream
# cancellation tests.
go test -race -timeout 600s -count=1 \
	-run 'Stream|Paced|Feed|PaceSchedule|RunPipeline|Leak' \
	./internal/corpus ./internal/ml ./internal/model ./internal/experiments .

echo "== pipeline identity smoke (Workers=1 vs Workers=8 byte-identical)"
# The tentpole invariant: overlap must change scheduling only, never
# results. TestRunPipelineIdentity runs the quick pipeline at both
# worker counts plus the sequential Prepare->RunEvaluation reference and
# requires identical models, corpora and evaluation matrices, and
# identical CV search scores from both entry points (the pipelined
# search and merchbench's unpipelined -cv search on Prepare's
# artifacts).
go test -timeout 300s -count=1 -run '^TestRunPipelineIdentity$' ./internal/experiments

echo "== replan race tier (epoch lifecycle + concurrent study cells)"
# The epoch lifecycle re-plans on the engine's goroutine, and the
# PhaseShift study runs its cells on concurrent workers; run exactly
# those paths — including mid-epoch cancellation and the Workers=1 vs
# Workers=8 study — under the race detector. (The main race tier above
# already races ./internal/hm.)
go test -race -timeout 600s -count=1 -run Replan ./internal/core ./internal/experiments

echo "== replan identity smoke (off == plan-once, Workers=1 vs Workers=8)"
# The lifecycle's gating contract: ReplanOff must be byte-identical to
# the pre-replan policy, and the drift study must agree exactly across
# worker counts (TestReplanStudyDeterministicAndRecovers runs the study
# at Workers=1 and Workers=8 and requires identical rows).
go test -timeout 300s -count=1 -run '^TestReplanOffByteIdentical$' ./internal/core
go test -timeout 300s -count=1 -run '^TestReplanStudyDeterministicAndRecovers$' ./internal/experiments

echo "== allocation gate (compiled single-point predict and split-index evaluation must not allocate)"
# Deliberately outside the -race tier: the assertion is exact (0
# allocs/op via testing.AllocsPerRun) and instrumented builds allocate.
# A GBR, a forest and a lone tree each score through one walk per tree.
go test -timeout 60s ./internal/ml -run '^(TestCompiledPredictZeroAllocs|TestSplitIndexPredictZeroAllocs)$' -count=1 -v | grep -E '^(=== RUN|--- (PASS|FAIL)|ok)' || exit 1

echo "== bench smoke (pointer vs compiled inference, split index vs walk, planners: 100 iterations; RMAT generator, BFS and SpGEMM construction, daemon tick: 1 iteration)"
# Not a perf gate (CI machines vary) — this just proves the benchmarks
# run: the pointer-walk reference they compare against lives in the
# ml test files, the compiled single and batch cases are the same walk
# (PredictAll walks each row as Predict does), the split-index
# benchmark times one indexed evaluation
# against one walk of the same GBR, the planner benchmarks are the ones
# README quotes, the
# RMAT benchmark builds BFS's full-scale graph and one SpGEMM operand
# once each, the BFS and SpGEMM benchmarks build each application at
# quick and full scale, and the tick benchmark runs Merchandiser's daemon
# on a full DRAM and MemoryOptimizer's evicting daemon.
go test -timeout 120s ./internal/ml -run '^$' -bench 'Predict(Pointer|Compiled)|SplitIndex' -benchtime 100x
go test -timeout 120s ./internal/placement -run '^$' -bench 'MinMakespanPlan|GreedyLoadBalanceTrained' -benchtime 100x
go test -timeout 120s ./internal/sparse -run '^$' -bench RMAT -benchtime 1x
go test -timeout 120s ./internal/apps -run '^$' -bench 'NewBFS|NewSpGEMM' -benchtime 1x
go test -timeout 120s ./internal/baseline -run '^$' -bench DaemonTick -benchtime 1x

echo "== fuzz smoke (FuzzLoadFlat, 10s)"
go test -timeout 60s ./internal/ml -run '^$' -fuzz '^FuzzLoadFlat$' -fuzztime 10s

echo "== fuzz smoke (FuzzSplitIndexMatchesPredict, 10s)"
# The seed picks the varied feature, so NaN and ±Inf reach every
# feature, feature 0 included, where a walk's leaf guard matters.
go test -timeout 60s ./internal/ml -run '^$' -fuzz '^FuzzSplitIndexMatchesPredict$' -fuzztime 10s

echo "== fuzz smoke (FuzzEventEncode, 10s)"
go test -timeout 60s ./internal/obs -run '^$' -fuzz '^FuzzEventEncode$' -fuzztime 10s

echo "== fuzz smoke (FuzzRestoreArtifact, 10s)"
go test -timeout 60s ./internal/store -run '^$' -fuzz '^FuzzRestoreArtifact$' -fuzztime 10s

echo "== fuzz smoke (FuzzBinaryDecode, 10s)"
go test -timeout 60s ./internal/store -run '^$' -fuzz '^FuzzBinaryDecode$' -fuzztime 10s

echo "== registry/gate race tier (publish/promote vs resolve, reload under fire, ring routing, response caches)"
# The fleet paths: racing publishers and promoters against a resolver,
# the serve bundle swap hammered by concurrent Place calls, the gate's
# prober/proxy shared backend state, and both tiers' response caches
# (sharded LRU + singleflight under concurrent identical requests,
# including ReloadUnderFire's cache variant that asserts zero stale
# responses across 12 promote/rollback cycles), and the gate driven by
# concurrent clients with the cache off and under Zipf-skewed keys.
go test -race -timeout 600s -count=1 -run 'Concurrent|ReloadUnderFire|Gate|Ring|Cache|Flight' \
	./internal/registry ./internal/serve ./internal/gate ./internal/rcache

echo "== allocation gate (canonical hash + cache lookup must not allocate)"
# Same contract as the compiled-predict gate: the replica's cache-hit
# fast path (canonical encode, SHA-256, shard lookup) runs per request
# and must stay allocation-free. Outside -race: instrumented builds
# allocate.
go test -timeout 60s ./internal/rcache -run '^TestHashAndGetZeroAllocs$' -count=1 -v | grep -E '^(=== RUN|--- (PASS|FAIL)|ok)' || exit 1

echo "== fuzz smoke (FuzzCanonicalEncode, 10s)"
go test -timeout 60s ./internal/rcache -run '^$' -fuzz '^FuzzCanonicalEncode$' -fuzztime 10s

echo "== fuzz smoke (FuzzGateCacheMatchesReplica, 10s)"
# Each call makes three loopback HTTP round trips to a real replica, so
# minimizing every new-coverage input would use up the 10s; with
# minimization off the smoke spends it on new inputs. A failing input is
# still saved under internal/gate/testdata/fuzz for replay.
go test -timeout 60s ./internal/gate -run '^$' -fuzz '^FuzzGateCacheMatchesReplica$' -fuzztime 10s -fuzzminimizetime 0

echo "== e2e save/load/serve smoke (merchserved)"
go build -o bin/merchserved ./cmd/merchserved
go run ./scripts/servesmoke -daemon bin/merchserved

echo "== e2e fleet smoke (registry publish/promote + 2 replicas + merchgate, zero-drop SIGHUP reload)"
go build -o bin/merchgate ./cmd/merchgate
go run ./scripts/gatesmoke -daemon bin/merchserved -gate bin/merchgate

echo "== coverage floor (internal/obs >= 70%)"
cov=$(go test -timeout 60s -cover ./internal/obs | awk '{for (i=1;i<=NF;i++) if ($i ~ /^[0-9.]+%$/) {sub(/%/,"",$i); print $i}}')
if [ -z "$cov" ]; then
	echo "could not parse coverage for internal/obs" >&2
	exit 1
fi
if ! awk -v c="$cov" 'BEGIN { exit (c >= 70.0) ? 0 : 1 }'; then
	echo "internal/obs coverage ${cov}% is under the 70% floor" >&2
	exit 1
fi
echo "internal/obs coverage: ${cov}%"

echo "== benchmark module (perfbench: go vet + go test -short)"
(cd perfbench && export GOTOOLCHAIN=local GOPROXY=off GOWORK=off && go vet ./... && go test -short -count=1 -timeout 300s ./...)

echo "check OK"
