package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"merchandiser/internal/experiments"
	"merchandiser/internal/serve"
)

// TestShortRunsReportEveryMetric runs each workload briefly, untraced and
// traced, and requires a correct result that names every metric with
// its unit. -short leaves out paper-eval, whose pipeline runs at full
// scale.
func TestShortRunsReportEveryMetric(t *testing.T) {
	root := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		if testing.Short() && w.name == "paper-eval" {
			continue
		}
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d: %s", w.name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w.name, trace, d.name, m, d.unit)
				}
				if trace == "0" && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, d.name)
				}
			}
			if trace == "1" && res.Metrics["fail_share"].Value != 0 {
				t.Errorf("%s: fail_share %v", w.name, res.Metrics["fail_share"].Value)
			}
			if trace == "1" && strings.HasPrefix(w.name, "serve-") {
				hits := res.Metrics["gate.cache_hit_share"].Value
				if w.name == "serve-distinct" && (hits != 0 || res.Metrics["serve.cache_hit_share"].Value != 0) {
					t.Errorf("serve-distinct hit a cache: gate %v", hits)
				}
				if w.name == "serve-zipf" && hits <= 0.5 {
					t.Errorf("serve-zipf gate cache hit share %v, want > 0.5", hits)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "traces", "serve-zipf-seed7.json")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// tamper rewrites every /place answer in flight with edit.
type tamper struct {
	edit func(*serve.PlacementResponse)
}

func (tp *tamper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var out serve.PlacementResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	tp.edit(&out)
	body, err = json.Marshal(&out)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestTamperedAnswersFail drives a real fleet through a transport that
// corrupts chosen answers and requires each one to count as failed.
func TestTamperedAnswersFail(t *testing.T) {
	ctx := context.Background()
	m, err := trainQuick(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := bootFleet(ctx, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	gen := newGenerator(3, m.capacity, m.events, false)

	cases := []struct {
		name string
		edit func(*serve.PlacementResponse)
	}{
		{"wrong model SHA", func(out *serve.PlacementResponse) { out.ModelSHA256 = strings.Repeat("0", 64) }},
		{"pages over capacity", func(out *serve.PlacementResponse) { out.Tasks[0].DRAMPages = m.capacity + 1 }},
		{"goal ratio above 1", func(out *serve.PlacementResponse) { out.Tasks[0].GoalRatio = 1.5 }},
		{"tasks reordered", func(out *serve.PlacementResponse) { out.Tasks[0], out.Tasks[1] = out.Tasks[1], out.Tasks[0] }},
		// Still within every invariant, so only the exact check against
		// a reference plan can catch it.
		{"single plan altered", func(out *serve.PlacementResponse) { out.BatchSize = 1; out.Tasks[0].Predicted *= 1.01 }},
	}
	for i, c := range cases {
		chk := newChecker(m, false)
		for k := 0; k < 4; k++ {
			client := &http.Client{Transport: http.DefaultTransport, Timeout: clientTimeout}
			if k%2 == 0 {
				client.Transport = &tamper{edit: c.edit}
			}
			call(ctx, client, f.url, gen, 10*i+k, chk, nil)
		}
		perf, err := m.restorePerf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		chk.verifySingles(ctx, perf, gen)
		if chk.failed != 2 {
			t.Errorf("%s: %d answers failed, want the 2 tampered ones (first error: %v)", c.name, chk.failed, chk.firstErr)
		}
	}
}

// TestSameSeedSameStream requires the request stream to be a function of
// the seed alone, and different seeds to give different streams.
func TestSameSeedSameStream(t *testing.T) {
	events := eventRange{names: []string{"a", "b"}, lo: []float64{0, 1}, hi: []float64{1, 5}}
	stream := func(seed int64, repeat bool) []byte {
		g := newGenerator(seed, 49152, events, repeat)
		var buf bytes.Buffer
		for i := 0; i < 64; i++ {
			r := g.request(i)
			b, err := json.Marshal(r.req)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(r.key)
			buf.Write(b)
		}
		return buf.Bytes()
	}
	for _, repeat := range []bool{false, true} {
		if !bytes.Equal(stream(5, repeat), stream(5, repeat)) {
			t.Errorf("repeat=%v: seed 5 gave two different streams", repeat)
		}
		if bytes.Equal(stream(5, repeat), stream(6, repeat)) {
			t.Errorf("repeat=%v: seeds 5 and 6 gave the same stream", repeat)
		}
	}
	// Requests are rebuilt from their index in any order.
	g := newGenerator(9, 49152, events, false)
	late, _ := json.Marshal(g.request(40).req)
	g.request(3)
	again, _ := json.Marshal(g.request(40).req)
	if !bytes.Equal(late, again) {
		t.Error("request 40 changed after other requests were drawn")
	}
}

// TestQuickPipelineWorkerInvariance requires paper-eval's quality outputs
// to be identical at one worker and at one per CPU.
func TestQuickPipelineWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick pipeline twice")
	}
	type quality struct{ r2, speedup float64 }
	var got []quality
	for _, workers := range []int{1, runtime.NumCPU()} {
		res, err := experiments.RunPipeline(context.Background(), experiments.Config{Quick: true, Seed: paperSeed, Workers: workers}, experiments.PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := paperOutcome(&paperRun{res: res})
		got = append(got, quality{out.values["model_r2"], out.values["merch_speedup"]})
	}
	if got[0] != got[1] {
		t.Errorf("workers 1 gave %+v, workers %d gave %+v", got[0], runtime.NumCPU(), got[1])
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's workloads and
// metric names and units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if s[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9.1 {
		t.Errorf("p90 of 1..10 = %v, want 9.1", got)
	}
	if got := quantile([]float64{math.Inf(1), 1, 2}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed request in the tail read %v, want +Inf", got)
	}
}
