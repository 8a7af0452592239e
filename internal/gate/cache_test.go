package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"merchandiser/internal/obs"
	"merchandiser/internal/serve"
)

// waitConverged blocks until the gate's probers agree on one model SHA
// (the precondition for the response cache to engage).
func waitConverged(t *testing.T, g *Gate, want string) {
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
func doPlaceRaw(t *testing.T, url, key, body string) (*http.Response, []byte) {
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

func TestGateCacheOrderSensitiveKey(t *testing.T) {
	// The gate replays serialized bodies verbatim, so its key must be
	// order-sensitive: the same tasks in a different order is NOT a hit
	// (the cached body's task order would be wrong for this caller).
	a := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL}, CacheEntries: 128})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	fwd := `{"tasks":[` +
		`{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300},` +
		`{"name":"t1","t_pm_only":3,"t_dram_only":1.1,"total_accesses":5e6,"footprint_pages":400}]}`
	rev := `{"tasks":[` +
		`{"name":"t1","t_pm_only":3,"t_dram_only":1.1,"total_accesses":5e6,"footprint_pages":400},` +
		`{"name":"t0","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":300}]}`
	doPlaceRaw(t, front.URL, "k", fwd)
	resp, _ := doPlaceRaw(t, front.URL, "k", rev)
	if h := resp.Header.Get(CacheHeader); h != "" {
		t.Fatalf("permuted body served from cache (%s=%q); gate keys must be order-sensitive", CacheHeader, h)
	}
	// But a byte-different rendering of the SAME order is a hit: the
	// canonical encoding ignores JSON field order and float formatting.
	alt := `{"tasks":[` +
		`{"footprint_pages":300,"total_accesses":4000000,"t_dram_only":0.8,"t_pm_only":2.0,"name":"t0"},` +
		`{"footprint_pages":400,"total_accesses":5000000,"t_dram_only":1.1,"t_pm_only":3.0,"name":"t1"}]}`
	resp2, _ := doPlaceRaw(t, front.URL, "k", alt)
	if h := resp2.Header.Get(CacheHeader); h != "hit" {
		t.Fatalf("re-rendered identical request missed (%s=%q); canonical hashing should ignore JSON formatting", CacheHeader, h)
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

func TestZipfPickerUniformPathIsLegacy(t *testing.T) {
	// s=0 must walk the exact rng.Intn path so existing seeded traces
	// replay byte-identically.
	if tab := zipfTable(64, 0); tab != nil {
		t.Fatal("s=0 built a CDF table; uniform draws must stay on rng.Intn")
	}
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if got, want := pickApp(r1, 64, nil), r2.Intn(64); got != want {
			t.Fatalf("draw %d: pickApp=%d, legacy Intn=%d", i, got, want)
		}
	}
}

func TestZipfPickerSkews(t *testing.T) {
	const apps, draws = 64, 20000
	cdf := zipfTable(apps, 1.1)
	if len(cdf) != apps {
		t.Fatalf("cdf len %d", len(cdf))
	}
	if last := cdf[apps-1]; last < 0.999999 || last > 1.000001 {
		t.Fatalf("cdf not normalized: tail %v", last)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, apps)
	for i := 0; i < draws; i++ {
		a := pickApp(rng, apps, cdf)
		if a < 0 || a >= apps {
			t.Fatalf("draw out of range: %d", a)
		}
		counts[a]++
	}
	uniform := draws / apps
	if counts[0] < 3*uniform {
		t.Fatalf("app 0 drew %d times; want at least 3x the uniform share %d at s=1.1", counts[0], uniform)
	}
	if counts[0] <= counts[apps-1] {
		t.Fatalf("skew inverted: hottest rank %d <= coldest rank %d", counts[0], counts[apps-1])
	}
}

func TestLoadgenZipfAgainstCachedGate(t *testing.T) {
	// End-to-end: a skewed trace against a cache-enabled gate must land a
	// sizeable hit rate (64 app bodies, 400 requests, s=1.1 — the hot
	// apps repeat many times) and the tagged report rows must carry it.
	a := newFakeReplica(t, "v1")
	b := newFakeReplica(t, "v1")
	g := testGate(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, CacheEntries: 256})
	waitReady(t, g)
	waitConverged(t, g, "sha-v1")
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	cfg := LoadgenConfig{
		Target:          front.URL,
		Requests:        400,
		Workers:         4,
		Apps:            64,
		TasksPerRequest: 3,
		Seed:            7,
		Replicas:        2,
		ZipfS:           1.1,
		Tag:             "cache=on_zipf=1.1_",
	}
	res, err := RunLoadgen(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen errors: %d", res.Errors)
	}
	stats, collapsed := g.CacheStats()
	if stats.Hits+collapsed == 0 {
		t.Fatal("skewed trace against cached gate produced zero hits")
	}
	upstream := a.places.Load() + b.places.Load()
	if upstream >= 400 {
		t.Fatalf("replicas absorbed all %d requests; cache shed nothing", upstream)
	}
	if upstream+int64(stats.Hits)+int64(collapsed) != 400 {
		t.Fatalf("accounting: upstream %d + hits %d + collapsed %d != 400", upstream, stats.Hits, collapsed)
	}
	rep := res.BenchReport(cfg)
	if _, ok := rep.Ops["gate_replicas=2_cache=on_zipf=1.1_p99_micros"]; !ok {
		t.Fatalf("report missing tagged rows: %v", rep.Ops)
	}
}
