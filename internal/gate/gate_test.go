package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"merchandiser/internal/obs"
	"merchandiser/internal/serve"
)

// fakeReplica is a stub merchserved: /readyz follows the ready flag and
// names the version; /place answers a minimal PlacementResponse stamped
// with the version, so tests can tell which replica (and which model)
// answered.
type fakeReplica struct {
	srv     *httptest.Server
	ready   atomic.Bool
	version atomic.Value // string
	places  atomic.Int64
	// placeSHA, when set, overrides the model SHA stamped into /place
	// responses (normally "sha-"+version) — it simulates a replica whose
	// answer raced a promotion.
	placeSHA atomic.Value // string
}

func newFakeReplica(t *testing.T, version string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	f.version.Store(version)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		v := f.version.Load().(string)
		out := serve.ReadyResponse{Ready: f.ready.Load(), Version: v, SHA256: "sha-" + v}
		if !out.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/place", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		f.places.Add(1)
		var req serve.PlacementRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v := f.version.Load().(string)
		sha := "sha-" + v
		if s, ok := f.placeSHA.Load().(string); ok {
			sha = s
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.PlacementResponse{
			BatchSize:    1,
			ModelVersion: v,
			ModelSHA256:  sha,
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func testGate(t *testing.T, cfg Config) *Gate {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 10 * time.Millisecond
	}
	if cfg.ReadmitAfter == 0 {
		cfg.ReadmitAfter = 1
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	g := New(cfg)
	t.Cleanup(g.Close)
	return g
}

func waitReady(t *testing.T, g *Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("gate never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func placeBody() string {
	return `{"tasks":[{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}`
}

func doPlace(t *testing.T, url, key string) (*serve.PlacementResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/place", strings.NewReader(placeBody()))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(KeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out serve.PlacementResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func TestGateRoutesConsistentlyByKey(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// The same key always lands on the same replica; across many keys
	// both replicas see traffic.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("app-%d", i)
		var first int64
		for rep := 0; rep < 3; rep++ {
			before := [2]int64{a.places.Load(), b.places.Load()}
			if _, code := doPlace(t, front.URL, key); code != http.StatusOK {
				t.Fatalf("key %s: status %d", key, code)
			}
			var hit int64
			if a.places.Load() > before[0] {
				hit = 0
			} else if b.places.Load() > before[1] {
				hit = 1
			} else {
				t.Fatalf("key %s: no replica saw the request", key)
			}
			if rep == 0 {
				first = hit
			} else if hit != first {
				t.Fatalf("key %s: moved from replica %d to %d with a stable fleet", key, first, hit)
			}
		}
	}
	if a.places.Load() == 0 || b.places.Load() == 0 {
		t.Fatalf("traffic not spread: a=%d b=%d", a.places.Load(), b.places.Load())
	}
}

func TestGateFailsOverOnConnectionFailure(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, Retries: 1})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	a.srv.Close() // replica a is gone: its keys must fail over to b
	for i := 0; i < 30; i++ {
		if _, code := doPlace(t, front.URL, fmt.Sprintf("app-%d", i)); code != http.StatusOK {
			t.Fatalf("key app-%d: status %d after replica loss", i, code)
		}
	}
}

func TestGateEjectsAndReadmits(t *testing.T) {
	a := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, EjectAfter: 2, ReadmitAfter: 2})
	waitReady(t, g)

	a.ready.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("unready replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	a.ready.Store(true)
	waitReady(t, g) // re-admission probes bring it back
}

func TestGateFleetzReportsVersions(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v2")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitReady(t, g)

	deadline := time.Now().Add(5 * time.Second)
	for {
		fleet := g.Fleet()
		versions := map[string]bool{}
		healthy := 0
		for _, st := range fleet {
			if st.Healthy {
				healthy++
			}
			if st.Version != "" {
				versions[st.Version] = true
				if want := "sha-" + st.Version; st.SHA256 != want {
					t.Fatalf("backend %s: sha %q, want %q", st.URL, st.SHA256, want)
				}
			}
		}
		if healthy == 2 && versions["v1"] && versions["v2"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet view never converged: %+v", fleet)
		}
		time.Sleep(5 * time.Millisecond)
	}

	front := httptest.NewServer(g.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Backends) != 2 {
		t.Fatalf("fleetz rows: %d", len(body.Backends))
	}
}

func TestGateRejectsWhenFleetDown(t *testing.T) {
	a := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, EjectAfter: 1})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	a.ready.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The lone replica answers 503 on /place too (draining): the gate
	// exhausts its candidates and surfaces the 503 rather than a 502.
	if _, code := doPlace(t, front.URL, "app-1"); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with whole fleet down, want 503", code)
	}
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gate /readyz %d with fleet down, want 503", resp.StatusCode)
	}
}

func TestGateRouteKeyFallsBackToTaskName(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// No header: the first task's name is the key, so repeats stick.
	var firstA, firstB int64
	if _, code := doPlace(t, front.URL, ""); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	firstA, firstB = a.places.Load(), b.places.Load()
	for i := 0; i < 5; i++ {
		if _, code := doPlace(t, front.URL, ""); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if firstA > 0 && b.places.Load() != firstB {
		t.Fatalf("keyless repeats moved replicas: b went %d -> %d", firstB, b.places.Load())
	}
	if firstB > 0 && a.places.Load() != firstA {
		t.Fatalf("keyless repeats moved replicas: a went %d -> %d", firstA, a.places.Load())
	}
}

func TestLoadgenSmoke(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	cfg := LoadgenConfig{
		Target:          front.URL,
		Requests:        400,
		Workers:         4,
		Apps:            8,
		TasksPerRequest: 3,
		Seed:            7,
		Replicas:        2,
	}
	res, err := RunLoadgen(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %d", res.Errors)
	}
	if got := a.places.Load() + b.places.Load(); got != 400 {
		t.Fatalf("replicas saw %d requests, want 400", got)
	}
	if res.ThroughputRPS <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible stats: %+v", res)
	}
	rep := res.BenchReport(cfg)
	if rep.Schema != "merchbench/bench/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	if _, ok := rep.Ops["gate_replicas=2_p99_micros"]; !ok {
		t.Fatalf("report missing replica-keyed rows: %v", rep.Ops)
	}
}
