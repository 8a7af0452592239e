package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

func testGate(t testing.TB, cfg Config) *Gate {
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

func waitReady(t testing.TB, g *Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("gate never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitAdmitted blocks until every backend is admitted. Ready needs only
// one, so a test that pins where a key lands, or needs every replica to
// see traffic, waits here: a replica admitted mid-test would take over
// some keys.
func waitAdmitted(t *testing.T, g *Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		admitted := true
		for _, st := range g.Fleet() {
			admitted = admitted && st.Healthy
		}
		if admitted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never fully admitted: %+v", g.Fleet())
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
	waitAdmitted(t, g)
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

func TestGateRouteKeyFallsBackToBodyDigest(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitAdmitted(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// No header: the body's digest is the key, so identical repeats stick.
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

// driveLoad posts one /place request per entry of apps from clients
// concurrent goroutines and returns how many did not answer 200.
func driveLoad(url string, clients int, apps []int) int64 {
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(apps); i += clients {
				if !placeOK(url, apps[i]) {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return failures.Load()
}

// placeOK posts app's request and reports whether it answered 200. Each
// app has its own body and routing key, so repeated apps send
// byte-identical requests.
func placeOK(url string, app int) bool {
	body := fmt.Sprintf(`{"tasks":[{"name":"app-%03d/t0","t_pm_only":%d,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}`, app, 2+app)
	req, err := http.NewRequest(http.MethodPost, url+"/place", strings.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set(KeyHeader, fmt.Sprintf("app-%03d", app))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func TestGateConcurrentLoad(t *testing.T) {
	// 400 requests from 4 clients over 8 keys through a gate with the
	// cache off: every request answers 200 and reaches exactly one
	// replica.
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	apps := make([]int, 400)
	for i := range apps {
		apps[i] = i % 8
	}
	if failures := driveLoad(front.URL, 4, apps); failures != 0 {
		t.Fatalf("%d requests failed", failures)
	}
	if got := a.places.Load() + b.places.Load(); got != 400 {
		t.Fatalf("replicas saw %d requests, want 400", got)
	}
}
