package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"merchandiser"
	"merchandiser/internal/obs"
	"merchandiser/internal/serve"
)

// waitConverged blocks until the gate's probers agree on one model SHA
// (the precondition for the response cache to engage).
func waitConverged(t testing.TB, g *Gate, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.convergedSHA() != want {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged on %q (now %q)", want, g.convergedSHA())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// doPlaceRaw posts a body and returns the full response: status, headers
// and bytes, so tests can inspect cache markers and replayed headers.
func doPlaceRaw(t testing.TB, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/place", strings.NewReader(body))
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
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestGateCacheHitSkipsReplica(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	reg := obs.New()
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, CacheEntries: 128, Obs: reg})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	resp1, body1 := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d", resp1.StatusCode)
	}
	if h := resp1.Header.Get(CacheHeader); h != "" {
		t.Fatalf("first request marked %s=%q", CacheHeader, h)
	}
	placesAfterMiss := a.places.Load() + b.places.Load()
	if placesAfterMiss != 1 {
		t.Fatalf("miss touched %d replicas, want 1", placesAfterMiss)
	}

	resp2, body2 := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get(CacheHeader); h != "hit" {
		t.Fatalf("repeat not marked as cache hit: %s=%q", CacheHeader, h)
	}
	if got := a.places.Load() + b.places.Load(); got != placesAfterMiss {
		t.Fatalf("cache hit still reached a replica: places %d -> %d", placesAfterMiss, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("hit body differs from miss body:\n%s\n%s", body1, body2)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("hit lost upstream Content-Type: %q", ct)
	}

	stats, _ := g.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", stats.Hits, stats.Misses)
	}
}

func TestGateCacheRoutingKeyDoesNotSplitCache(t *testing.T) {
	// The cache key is the request content, not the routing key: the same
	// body under two different sticky keys is one cache entry.
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	doPlaceRaw(t, front.URL, "app-A", placeBody())
	resp, _ := doPlaceRaw(t, front.URL, "app-B", placeBody())
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Fatalf("same body under a new routing key missed: %s=%q", CacheHeader, h)
	}
}

// fwdBody is a two-task request; revBody has its tasks reversed,
// altBody re-renders it (field order, number formats), and bogusBody
// adds a field the request schema does not have.
const (
	fwdBody = `{"tasks":[` +
		`{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300},` +
		`{"name":"t1","t_pm_only":3,"t_dram_only":1.1,"total_accesses":5e6,"footprint_pages":400}]}`
	revBody = `{"tasks":[` +
		`{"name":"t1","t_pm_only":3,"t_dram_only":1.1,"total_accesses":5e6,"footprint_pages":400},` +
		`{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}`
	altBody = `{"tasks":[` +
		`{"footprint_pages":300,"total_accesses":4000000,"t_dram_only":0.8,"t_pm_only":2.0,"name":"t0"},` +
		`{"footprint_pages":400,"total_accesses":5000000,"t_dram_only":1.1,"t_pm_only":3.0,"name":"t1"}]}`
	bogusBody = `{"tasks":[` +
		`{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300},` +
		`{"name":"t1","t_pm_only":3,"t_dram_only":1.1,"total_accesses":5e6,"footprint_pages":400,"bogus":1}]}`
)

// realReplica serves a serve.Service with its response cache off and a
// TrainNone system's artifact loaded, so its /readyz reports a SHA the
// gate's cache can converge on. It returns the server and that SHA.
func realReplica(t testing.TB) (*httptest.Server, string) {
	t.Helper()
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sys.merch")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	if _, err := s.LoadArtifact(context.Background(), serve.ArtifactRef{Path: path, Version: "v1"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler(serve.HTTPConfig{}))
	t.Cleanup(srv.Close)
	return srv, s.Info().SHA256
}

// TestGateCacheNeverAnswersARejectedBody: once a body has warmed the
// gate cache, the same request with a field the schema does not have
// must reach the replica and get its 400, not the warm entry: a lax
// decode at the gate would map both bodies to one key.
func TestGateCacheNeverAnswersARejectedBody(t *testing.T) {
	rep, sha := realReplica(t)
	g := testGate(t, Config{Backends: []string{rep.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, sha)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	doPlaceRaw(t, front.URL, "", fwdBody)
	resp, _ := doPlaceRaw(t, front.URL, "", fwdBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "hit" {
		t.Fatalf("repeat of the plain body: status %d, %s=%q; want a 200 cache hit", resp.StatusCode, CacheHeader, resp.Header.Get(CacheHeader))
	}
	resp, body := doPlaceRaw(t, front.URL, "", bogusBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field body: status %d, want the replica's 400: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(CacheHeader); h != "" {
		t.Fatalf("unknown-field body marked %s=%q", CacheHeader, h)
	}
}

func TestGateCacheOrderSensitiveKey(t *testing.T) {
	// The gate replays serialized bodies verbatim, so its key must be
	// order-sensitive: the same tasks in a different order is NOT a hit
	// (the cached body's task order would be wrong for this caller).
	// The key is the body's bytes, so a re-rendering of the same request
	// misses too and is left to the replica's canonical cache.
	a := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	doPlaceRaw(t, front.URL, "k", fwdBody)
	resp, _ := doPlaceRaw(t, front.URL, "k", revBody)
	if h := resp.Header.Get(CacheHeader); h != "" {
		t.Fatalf("permuted body served from cache (%s=%q); gate keys must be order-sensitive", CacheHeader, h)
	}
	before := a.places.Load()
	resp2, _ := doPlaceRaw(t, front.URL, "k", altBody)
	if h := resp2.Header.Get(CacheHeader); h != "" {
		t.Fatalf("re-rendered body served from cache (%s=%q); the gate key is the body's bytes", CacheHeader, h)
	}
	if a.places.Load() != before+1 {
		t.Fatal("re-rendered body was not forwarded to the replica")
	}
}

func TestGateCacheBypassedWhileUnconverged(t *testing.T) {
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v2") // mid-promotion fleet: two SHAs
	reg := obs.New()
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, CacheEntries: 128, Obs: reg})
	waitReady(t, g)
	waitConverged(t, g, "")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	for i := 0; i < 3; i++ {
		resp, _ := doPlaceRaw(t, front.URL, "app-1", placeBody())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if h := resp.Header.Get(CacheHeader); h != "" {
			t.Fatalf("unconverged fleet served from cache: %s=%q", CacheHeader, h)
		}
	}
	if got := a.places.Load() + b.places.Load(); got != 3 {
		t.Fatalf("replicas saw %d requests, want all 3 while unconverged", got)
	}
	snap := reg.Snapshot(true)
	if snap.Counters["gate.cache_unconverged"] < 3 {
		t.Fatalf("gate.cache_unconverged = %v, want >= 3", snap.Counters["gate.cache_unconverged"])
	}
	stats, _ := g.CacheStats()
	if stats.Hits != 0 || stats.Misses != 0 {
		t.Fatalf("cache consulted while unconverged: %+v", stats)
	}
}

func TestGateCacheInvalidatedByPromotion(t *testing.T) {
	a := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	doPlaceRaw(t, front.URL, "app-1", placeBody())
	resp, _ := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp.Header.Get(CacheHeader) != "hit" {
		t.Fatal("warmup hit did not happen")
	}

	// Promote: the replica starts reporting (and stamping) v2. Once the
	// prober sees it, the converged SHA changes and every old entry is
	// unreachable — the same request must go upstream again and come back
	// stamped with the new model.
	a.version.Store("v2")
	waitConverged(t, g, "sha-v2")
	before := a.places.Load()
	resp2, body := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if h := resp2.Header.Get(CacheHeader); h != "" {
		t.Fatalf("request served from pre-promotion cache: %s=%q", CacheHeader, h)
	}
	if a.places.Load() != before+1 {
		t.Fatal("post-promotion request did not reach the replica")
	}
	var out serve.PlacementResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelSHA256 != "sha-v2" {
		t.Fatalf("post-promotion response stamped %q, want sha-v2", out.ModelSHA256)
	}
	// And the new model's entry caches normally.
	resp3, _ := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp3.Header.Get(CacheHeader) != "hit" {
		t.Fatal("new model's response did not cache")
	}
}

func TestGateCacheStoreGuardRejectsMismatchedSHA(t *testing.T) {
	// A replica whose /place answers are stamped with a different SHA than
	// its /readyz reports (a response racing a promotion) must be served
	// but never cached.
	a := newFakeReplica(t, "v1")
	a.placeSHA.Store("sha-v0")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	for i := 0; i < 3; i++ {
		resp, _ := doPlaceRaw(t, front.URL, "app-1", placeBody())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if h := resp.Header.Get(CacheHeader); h != "" {
			t.Fatalf("mismatched-SHA response was cached: %s=%q", CacheHeader, h)
		}
	}
	if a.places.Load() != 3 {
		t.Fatalf("replica saw %d requests, want 3 (nothing cacheable)", a.places.Load())
	}
	stats, _ := g.CacheStats()
	if stats.Entries != 0 {
		t.Fatalf("store guard leaked %d entries", stats.Entries)
	}
}

func TestGateRetryAfterOnFleetDown(t *testing.T) {
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
	resp, _ := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want the 1-second floor when upstream gave none", ra)
	}
}

func TestGateReplays503BodyWithHeaders(t *testing.T) {
	// A replica that answers 503 with a JSON body and an oversized
	// Retry-After: the gate must replay the body with its Content-Type
	// intact and clamp Retry-After into [1, 30].
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.ReadyResponse{Ready: true, Version: "v1", SHA256: "sha-v1"})
	})
	mux.HandleFunc("/place", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "120")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replanning epoch in progress"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	g := testGate(t, Config{Backends: []string{srv.URL}, Retries: 1})
	waitReady(t, g)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	resp, body := doPlaceRaw(t, front.URL, "app-1", placeBody())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("replayed 503 lost its Content-Type: %q", ct)
	}
	if string(body) != `{"error":"replanning epoch in progress"}` {
		t.Fatalf("replayed 503 body mangled: %s", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Fatalf("Retry-After %q, want upstream 120 clamped to 30", ra)
	}
}

// TestGateFleetzShapeFollowsCacheConfig: /fleetz is always one
// FleetResponse object; the cache config decides only whether its
// cache block is present.
func TestGateFleetzShapeFollowsCacheConfig(t *testing.T) {
	a := newFakeReplica(t, "v1")

	// Cache off: the same object, with the cache block omitted.
	g0 := testGate(t, Config{Backends: []string{a.srv.URL}})
	waitReady(t, g0)
	front0 := httptest.NewServer(g0.Handler())
	defer front0.Close()
	resp, err := http.Get(front0.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var off FleetResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&off); err != nil {
		t.Fatalf("cache-off /fleetz is not a FleetResponse: %v: %s", err, raw)
	}
	if len(off.Backends) != 1 || off.Cache != nil || bytes.Contains(raw, []byte(`"cache"`)) {
		t.Fatalf("cache-off /fleetz: want one backend and no cache block, got %s", raw)
	}

	// Cache on: an object with backends + cache counters.
	g1 := testGate(t, Config{Backends: []string{a.srv.URL}, CacheEntries: 64})
	waitReady(t, g1)
	waitConverged(t, g1, "sha-v1")
	front1 := httptest.NewServer(g1.Handler())
	defer front1.Close()
	doPlaceRaw(t, front1.URL, "k", placeBody())
	doPlaceRaw(t, front1.URL, "k", placeBody())

	resp, err = http.Get(front1.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	var fleet FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fleet.Backends) != 1 {
		t.Fatalf("backends: %d", len(fleet.Backends))
	}
	if fleet.Cache == nil {
		t.Fatal("cache-on /fleetz missing cache block")
	}
	if fleet.Cache.Hits != 1 || fleet.Cache.Misses != 1 {
		t.Fatalf("fleetz cache hits=%d misses=%d, want 1/1", fleet.Cache.Hits, fleet.Cache.Misses)
	}
	if fleet.Cache.HitRate != 0.5 {
		t.Fatalf("fleetz hit_rate %v, want 0.5", fleet.Cache.HitRate)
	}
	if fleet.Cache.ConvergedSHA != "sha-v1" {
		t.Fatalf("fleetz converged_sha %q", fleet.Cache.ConvergedSHA)
	}
}

func TestGateCacheAccountingUnderSkew(t *testing.T) {
	// A skewed trace against a cache-enabled gate: 400 requests over 64
	// app bodies at Zipf s=1.1, so the hot apps repeat many times. The
	// cache must shed replica work, and every request must be accounted
	// for as exactly one of upstream, hit or collapsed.
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, CacheEntries: 256})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, 63)
	apps := make([]int, 400)
	for i := range apps {
		apps[i] = int(zipf.Uint64())
	}
	if failures := driveLoad(front.URL, 4, apps); failures != 0 {
		t.Fatalf("%d requests failed", failures)
	}
	stats, collapsed := g.CacheStats()
	if stats.Hits+collapsed == 0 {
		t.Fatal("skewed trace against cached gate produced zero hits")
	}
	if stats.Hits == 0 {
		t.Fatalf("only singleflight shed load (%d collapsed); the LRU served no repeat", collapsed)
	}
	upstream := a.places.Load() + b.places.Load()
	if upstream >= 400 {
		t.Fatalf("replicas absorbed all %d requests; cache shed nothing", upstream)
	}
	if upstream+int64(stats.Hits)+int64(collapsed) != 400 {
		t.Fatalf("accounting: upstream %d + hits %d + collapsed %d != 400", upstream, stats.Hits, collapsed)
	}
}
