package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merchandiser"
	"merchandiser/internal/merr"
	"merchandiser/internal/registry"
	"merchandiser/internal/store"
)

// saveVersionedArtifact writes a TrainNone system artifact whose bytes
// are unique per seq (the training seed rides in the manifest), so every
// registry version has a distinct SHA-256.
func saveVersionedArtifact(t testing.TB, dir string, seq int) string {
	t.Helper()
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	sys.Meta.Seed = int64(seq)
	path := filepath.Join(dir, fmt.Sprintf("sys-%d.merch", seq))
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func registrySource(reg *registry.Registry) func(context.Context) (string, string, error) {
	return func(context.Context) (string, string, error) {
		e, err := reg.Current()
		if err != nil {
			return "", "", err
		}
		return e.Path, e.Version, nil
	}
}

func TestLoadArtifactStampsInfo(t *testing.T) {
	dir := t.TempDir()
	path := saveVersionedArtifact(t, dir, 1)
	s := New(Config{})
	defer shutdown(t, s)
	if _, err := s.LoadArtifactAs(context.Background(), path, "v1"); err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	wantSHA, _, err := store.FileSHA256(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != "v1" || info.SHA256 != wantSHA {
		t.Fatalf("info %+v, want version v1 sha %s", info, wantSHA)
	}
	out, err := s.Place(context.Background(), testRequest("x", 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.ModelVersion != "v1" || out.ModelSHA256 != wantSHA {
		t.Fatalf("response not stamped: %+v", out)
	}
}

func TestReloadSwapsAndSkipsNoops(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("v1", saveVersionedArtifact(t, dir, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Source: registrySource(reg)})
	defer shutdown(t, s)

	// First reload loads v1 from nothing.
	info, reloaded, err := s.Reload(context.Background())
	if err != nil || !reloaded || info.Version != "v1" {
		t.Fatalf("first reload: %+v %v %v", info, reloaded, err)
	}
	if !s.Ready() {
		t.Fatal("service not ready after reload")
	}
	// Same promoted bytes: a no-op, not a swap.
	info, reloaded, err = s.Reload(context.Background())
	if err != nil || reloaded || info.Version != "v1" {
		t.Fatalf("noop reload: %+v %v %v", info, reloaded, err)
	}
	// Promote v2 and reload: a swap.
	if _, err := reg.Publish("v2", saveVersionedArtifact(t, dir, 2)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	info, reloaded, err = s.Reload(context.Background())
	if err != nil || !reloaded || info.Version != "v2" {
		t.Fatalf("v2 reload: %+v %v %v", info, reloaded, err)
	}
	out, err := s.Place(context.Background(), testRequest("x", 1))
	if err != nil || out.ModelVersion != "v2" {
		t.Fatalf("post-reload response: %+v %v", out, err)
	}
}

func TestReloadWithoutSourceFails(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	if _, _, err := s.Reload(context.Background()); !errors.Is(err, merr.ErrBadSpec) {
		t.Fatalf("reload without source: %v, want ErrBadSpec", err)
	}
}

// TestReloadUnderFire is the zero-drop contract under live promotion
// churn: clients hammer Place while versions are published, promoted and
// reloaded concurrently. Every admitted request must be answered (no
// drops, no errors), every response must carry a (version, SHA) pair
// that was published at some point, readiness must never flap, and no
// goroutines may leak. The cache variant repeats identical requests
// through the response cache during the same churn, proving a hit can
// never resurrect a model that was never promoted — stale entries are
// orphaned by the SHA half of the key. Run with -race.
func TestReloadUnderFire(t *testing.T) {
	t.Run("nocache", func(t *testing.T) { runReloadUnderFire(t, 0) })
	t.Run("cache", func(t *testing.T) { runReloadUnderFire(t, 256) })
}

func runReloadUnderFire(t *testing.T, cacheEntries int) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	reg, err := registry.Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	// publish records version → artifact SHA before Promote, so a client
	// can check the exact pair its response was stamped with.
	promoted := sync.Map{} // version -> artifact SHA-256
	publish := func(version string, seq int) error {
		path := saveVersionedArtifact(t, dir, seq)
		sha, _, err := store.FileSHA256(path)
		if err != nil {
			return err
		}
		if _, err := reg.Publish(version, path); err != nil {
			return err
		}
		promoted.Store(version, sha)
		return nil
	}
	if err := publish("v000", 0); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v000"); err != nil {
		t.Fatal(err)
	}
	s := New(Config{QueueDepth: 512, BatchWindow: 200 * time.Microsecond, Source: registrySource(reg), CacheEntries: cacheEntries})
	if _, _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}

	const (
		clients  = 8
		versions = 12
	)

	stop := make(chan struct{})
	var flaps atomic.Int64
	go func() { // readiness watcher: must never observe not-ready
		for {
			select {
			case <-stop:
				return
			default:
				if !s.Ready() {
					flaps.Add(1)
				}
			}
		}
	}()

	// Promoter: publish + promote + reload in a loop, with interleaved
	// rollbacks and concurrent no-op reloads.
	var promoterMu sync.Mutex
	var promoterErr error
	setErr := func(err error) {
		promoterMu.Lock()
		if promoterErr == nil {
			promoterErr = err
		}
		promoterMu.Unlock()
	}
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		defer close(stop)
		for i := 1; i <= versions; i++ {
			v := fmt.Sprintf("v%03d", i)
			if err := publish(v, i); err != nil {
				setErr(err)
				return
			}
			if err := reg.Promote(v); err != nil {
				setErr(err)
				return
			}
			// Two racing reloads: one must swap, the other coalesce.
			var rwg sync.WaitGroup
			for r := 0; r < 2; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					if _, _, err := s.Reload(context.Background()); err != nil {
						setErr(err)
					}
				}()
			}
			rwg.Wait()
			// Let traffic flow against this version before the next swap,
			// so repeats can land under a stable SHA.
			time.Sleep(2 * time.Millisecond)
			if i%5 == 0 {
				if _, err := reg.Rollback(); err != nil {
					setErr(err)
					return
				}
				if _, _, err := s.Reload(context.Background()); err != nil {
					setErr(err)
					return
				}
			}
		}
	}()

	var admitted, answered atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A shared request shape (clients pair up) keeps identical
			// requests flowing concurrently: with the cache on, repeats
			// land as hits or collapses whenever a promotion did not land
			// in between — and a stale entry would surface as a
			// never-published (version, SHA) pair below.
			shared := testRequest(fmt.Sprintf("c%d", c%(clients/2)), 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := s.Place(context.Background(), shared)
				if err != nil {
					// Capacity rejections happen before admission; anything
					// else is a dropped/erred admitted request.
					if errors.Is(err, merr.ErrCapacity) {
						continue
					}
					errCh <- err
					return
				}
				admitted.Add(1)
				answered.Add(1)
				if out.ModelVersion == "" {
					errCh <- fmt.Errorf("response missing model version")
					return
				}
				wantSHA, ok := promoted.Load(out.ModelVersion)
				if !ok {
					errCh <- fmt.Errorf("response version %q was never promoted", out.ModelVersion)
					return
				}
				if out.ModelSHA256 != wantSHA.(string) {
					errCh <- fmt.Errorf("stale response: version %q stamped with SHA %s, published as %s",
						out.ModelVersion, out.ModelSHA256, wantSHA)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	pwg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if promoterErr != nil {
		t.Fatal(promoterErr)
	}
	if flaps.Load() != 0 {
		t.Fatalf("/readyz flapped %d times during reloads", flaps.Load())
	}
	if admitted.Load() == 0 {
		t.Fatal("no requests were admitted; the test exercised nothing")
	}
	if admitted.Load() != answered.Load() {
		t.Fatalf("admitted %d != answered %d", admitted.Load(), answered.Load())
	}
	stats, collapsed := s.CacheStats()
	if cacheEntries > 0 {
		if stats.Hits+collapsed == 0 {
			t.Fatal("cache variant served no hits or collapses; the stale-hit check exercised nothing")
		}
		// Churn is over: a back-to-back repeat must now be a
		// deterministic hit, stamped with the final promoted pair.
		req := testRequest("epilogue", 1)
		for rep := 0; rep < 2; rep++ {
			out, err := s.Place(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if rep > 0 && !out.Cached {
				t.Fatal("post-churn repeat did not hit the cache")
			}
			wantSHA, ok := promoted.Load(out.ModelVersion)
			if !ok || out.ModelSHA256 != wantSHA.(string) {
				t.Fatalf("epilogue response pair (%q, %s) was never published", out.ModelVersion, out.ModelSHA256)
			}
		}
		stats, _ = s.CacheStats()
	}
	if cacheEntries == 0 && (stats.Hits != 0 || stats.Misses != 0) {
		t.Fatalf("cache-off variant touched the cache: %+v", stats)
	}

	shutdown(t, s)
	settleGoroutines(t, before)
	t.Logf("served %d requests across %d promotions with zero drops (cache hits %d, collapsed %d)",
		answered.Load(), versions, stats.Hits, collapsed)
}

func TestHTTPReloadAndReplanEndpoints(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}

	// v1 carries epoch provenance: attach an epochs section by rewriting
	// the artifact the way merchbench -exp replan -save does.
	src := saveVersionedArtifact(t, dir, 1)
	a, err := store.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	eps := []store.EpochRecord{
		{Instance: 2, Epoch: 1, Time: 0.5, Drift: 0.4, Projected: 1.4, Replanned: true, Residual: 0.7, MigrationCost: 0.01, MovedPages: 128},
		{Instance: 2, Epoch: 2, Time: 1.0, Drift: 0.05, Projected: 1.1},
	}
	if err := a.SetEpochs(eps); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile(src, a); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("v1", src); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Source: registrySource(reg)})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler(HTTPConfig{}))
	defer srv.Close()

	// /readyz before load: 503 with ready:false.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz before load: %d %+v", resp.StatusCode, ready)
	}

	// GET /reloadz is 405; POST performs the load.
	resp, err = http.Get(srv.URL + "/reloadz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reloadz: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/reloadz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rel ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !rel.Reloaded || rel.Version != "v1" || rel.SHA256 == "" {
		t.Fatalf("reloadz: %d %+v", resp.StatusCode, rel)
	}

	// /readyz now names the serving model.
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready = ReadyResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !ready.Ready || ready.Version != "v1" || ready.SHA256 != rel.SHA256 {
		t.Fatalf("readyz after load: %d %+v", resp.StatusCode, ready)
	}

	// /replanz serves the epoch provenance that traveled in the artifact.
	resp, err = http.Get(srv.URL + "/replanz")
	if err != nil {
		t.Fatal(err)
	}
	var rp ReplanResponse
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rp.Version != "v1" || len(rp.Epochs) != 2 {
		t.Fatalf("replanz: %d %+v", resp.StatusCode, rp)
	}
	if rp.Epochs[0].Drift != 0.4 || !rp.Epochs[0].Replanned || rp.Epochs[1].Epoch != 2 {
		t.Fatalf("replanz epochs mangled: %+v", rp.Epochs)
	}

	// A second POST /reloadz with unchanged bytes reports reloaded:false.
	resp, err = http.Post(srv.URL+"/reloadz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rel = ReloadResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rel.Reloaded {
		t.Fatalf("noop reloadz: %d %+v", resp.StatusCode, rel)
	}
}

func TestReloadzWithoutSourceIs501(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	s.Load(testSystem(t))
	srv := httptest.NewServer(s.Handler(HTTPConfig{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/reloadz", "", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reloadz without source: %d, want 501", resp.StatusCode)
	}
}
