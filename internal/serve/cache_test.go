package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"merchandiser/internal/obs"
	"merchandiser/internal/pmc"
)

// cacheService boots a service with an artifact loaded (the cache needs
// a model SHA) and the given cache capacity.
func cacheService(t *testing.T, cfg Config) *Service {
	t.Helper()
	dir := t.TempDir()
	path := saveVersionedArtifact(t, dir, 1)
	s := New(cfg)
	t.Cleanup(func() { shutdown(t, s) })
	if _, err := s.LoadArtifactAs(context.Background(), path, "v1"); err != nil {
		t.Fatal(err)
	}
	return s
}

// distinctRequest builds a request whose tasks have distinct names, so
// permutation tests can tell positions apart.
func distinctRequest(n int) *PlacementRequest {
	req := &PlacementRequest{}
	for i := 0; i < n; i++ {
		req.Tasks = append(req.Tasks, TaskRequest{
			Name:           fmt.Sprintf("task-%c", 'a'+i),
			TPmOnly:        2.0 + float64(i)*0.3,
			TDramOnly:      0.8,
			Events:         map[string]float64{pmc.SelectedEvents[0]: 0.5 + float64(i)},
			TotalAccesses:  4e6,
			FootprintPages: 300,
		})
	}
	return req
}

// samePlan compares everything but the Cached flag.
func samePlan(t *testing.T, a, b *PlacementResponse) {
	t.Helper()
	if len(a.Tasks) != len(b.Tasks) || a.Rounds != b.Rounds || a.BatchSize != b.BatchSize ||
		math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) ||
		a.ModelVersion != b.ModelVersion || a.ModelSHA256 != b.ModelSHA256 {
		t.Fatalf("plans differ:\n%+v\n%+v", a, b)
	}
	for i := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[i], b.Tasks[i]) {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
}

func TestCacheHitMatchesMiss(t *testing.T) {
	reg := obs.New()
	s := cacheService(t, Config{CacheEntries: 64, Obs: reg})
	req := distinctRequest(3)

	miss, err := s.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Fatal("first request reported cached")
	}
	hit, err := s.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("identical repeat was not served from cache")
	}
	samePlan(t, miss, hit)

	stats, _ := s.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if reg.Counter("serve.cache_hits").Value() != 1 {
		t.Fatal("obs hit counter not wired")
	}
	// The hit skipped the planner: only one plan ever ran.
	if got := reg.Counter("serve.batches").Value(); got != 1 {
		t.Fatalf("plans = %v, want 1", got)
	}
	if got := reg.Counter("serve.requests").Value(); got != 2 {
		t.Fatalf("requests = %v, want 2", got)
	}
}

func TestCachePermutedRequestHits(t *testing.T) {
	s := cacheService(t, Config{CacheEntries: 64})
	req := distinctRequest(5)
	orig, err := s.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TaskPlacement{}
	for _, tp := range orig.Tasks {
		byName[tp.Name] = tp
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		perm := &PlacementRequest{Tasks: append([]TaskRequest(nil), req.Tasks...)}
		rng.Shuffle(len(perm.Tasks), func(i, j int) {
			perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i]
		})
		out, err := s.Place(context.Background(), perm)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Cached {
			t.Fatalf("trial %d: permuted request missed the cache", trial)
		}
		// Tasks must come back in the permuted caller's order, carrying
		// the placements computed for the original request.
		for i, tp := range out.Tasks {
			if tp.Name != perm.Tasks[i].Name {
				t.Fatalf("trial %d: position %d has task %q, want %q", trial, i, tp.Name, perm.Tasks[i].Name)
			}
			if !reflect.DeepEqual(tp, byName[tp.Name]) {
				t.Fatalf("trial %d: task %q placement differs from original", trial, tp.Name)
			}
		}
	}
	stats, _ := s.CacheStats()
	if stats.Hits != 5 || stats.Misses != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	// The leader's plan is held in the planner until every follower has
	// parked on its live flight — exactly one task planned.
	reg := obs.New()
	hold := newPlanHold()
	s := cacheService(t, Config{CacheEntries: 64, Obs: reg, PlanLog: hold.log})
	defer hold.Release()
	req := distinctRequest(1)

	const n = 12
	var wg sync.WaitGroup
	outs := make([]*PlacementResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Place(context.Background(), req)
		}(i)
	}
	waitUntil(t, "followers parked on the leader's flight", func() bool {
		_, collapsed := s.CacheStats()
		return len(hold.logged()) == 1 && collapsed == n-1
	})
	hold.Release()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	if got := reg.Counter("serve.planned_tasks").Value(); got != 1 {
		t.Fatalf("planned %v tasks for %d identical concurrent requests, want 1", got, n)
	}
	stats, collapsed := s.CacheStats()
	if stats.Hits+collapsed != n-1 {
		t.Fatalf("hits %d + collapsed %d != %d", stats.Hits, collapsed, n-1)
	}
	cachedCount := 0
	for _, out := range outs {
		samePlan(t, outs[0], out)
		if out.Cached {
			cachedCount++
		}
	}
	if cachedCount != n-1 {
		t.Fatalf("%d responses marked cached, want %d (exactly one leader)", cachedCount, n-1)
	}
}

func TestCacheDisabledIsUnchanged(t *testing.T) {
	s := cacheService(t, Config{CacheEntries: 0})
	req := distinctRequest(2)
	for i := 0; i < 3; i++ {
		out, err := s.Place(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Fatal("cache-off response marked cached")
		}
	}
	stats, collapsed := s.CacheStats()
	if stats.Hits != 0 || stats.Misses != 0 || stats.Entries != 0 || collapsed != 0 {
		t.Fatalf("disabled cache has activity: %+v %d", stats, collapsed)
	}
}

func TestCacheBypassedWithoutArtifactSHA(t *testing.T) {
	// Load() installs a system with no artifact identity: there is no SHA
	// to key on, so the cache must stay cold rather than mix models.
	s := New(Config{CacheEntries: 64})
	defer shutdown(t, s)
	s.Load(testSystem(t))
	req := distinctRequest(2)
	for i := 0; i < 2; i++ {
		out, err := s.Place(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Fatal("SHA-less response served from cache")
		}
	}
	stats, _ := s.CacheStats()
	if stats.Hits != 0 || stats.Misses != 0 {
		t.Fatalf("SHA-less requests touched the cache: %+v", stats)
	}
}

func TestCacheDifferentRequestsMiss(t *testing.T) {
	s := cacheService(t, Config{CacheEntries: 64})
	a := distinctRequest(2)
	if _, err := s.Place(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	b := distinctRequest(2)
	b.Tasks[1].TotalAccesses++
	out, err := s.Place(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("semantically different request hit the cache")
	}
	stats, _ := s.CacheStats()
	if stats.Misses != 2 || stats.Hits != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}
