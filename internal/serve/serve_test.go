package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"merchandiser"
	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/store"
)

func testSystem(t *testing.T) *merchandiser.System {
	t.Helper()
	spec := merchandiser.DefaultSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 128 * 4096
	spec.Tiers[hm.PM].CapacityBytes = 2048 * 4096
	sys, err := merchandiser.NewSystem(spec, merchandiser.TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testRequest(name string, tasks int) *PlacementRequest {
	req := &PlacementRequest{}
	for i := 0; i < tasks; i++ {
		req.Tasks = append(req.Tasks, TaskRequest{
			Name:           name,
			TPmOnly:        2.0 + float64(i)*0.3,
			TDramOnly:      0.8,
			Events:         map[string]float64{pmc.SelectedEvents[0]: 0.5},
			TotalAccesses:  4e6,
			FootprintPages: 300,
		})
	}
	return req
}

// settleGoroutines waits for the goroutine count to drop back to target.
func settleGoroutines(t *testing.T, target int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= target {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > %d", runtime.NumGoroutine(), target)
}

func shutdown(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// planAlone is the answer the service owes req: MinMakespanPlan on
// req's tasks alone, over the full DRAM capacity at the service's
// default tolerance, stamped with info.
func planAlone(t *testing.T, sys *merchandiser.System, req *PlacementRequest, info ModelInfo) *PlacementResponse {
	t.Helper()
	tasks := make([]placement.TaskInput, len(req.Tasks))
	for i := range req.Tasks {
		tasks[i] = req.Tasks[i].toInput()
	}
	plan, err := placement.MinMakespanPlan(tasks, sys.Spec.CapacityPages(hm.DRAM), sys.Perf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	out := &PlacementResponse{
		Rounds:       plan.Rounds,
		Makespan:     plan.PredictedMakespan(),
		BatchSize:    1,
		ModelVersion: info.Version,
		ModelSHA256:  info.SHA256,
	}
	for i, task := range tasks {
		out.Tasks = append(out.Tasks, TaskPlacement{
			Name:         task.Name,
			DRAMAccesses: plan.DRAMAccesses[i],
			GoalRatio:    plan.GoalRatio[i],
			DRAMPages:    plan.DRAMPages[i],
			Predicted:    plan.Predicted[i],
		})
	}
	return out
}

// sameJSON fails unless got and want encode to the same JSON bytes —
// every float bit for bit.
func sameJSON(t *testing.T, what string, got, want *PlacementResponse) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// planHold is a Config.PlanLog that records every plan and parks the
// planner inside the hook until Release, so a test can line requests up
// in the queue behind a plan it knows is in flight.
type planHold struct {
	mu       sync.Mutex
	records  []*store.PlanRecord
	release  chan struct{}
	released sync.Once
}

func newPlanHold() *planHold { return &planHold{release: make(chan struct{})} }

func (h *planHold) log(r *store.PlanRecord) {
	h.mu.Lock()
	h.records = append(h.records, r)
	h.mu.Unlock()
	<-h.release
}

// Release lets every held and future plan through. It is idempotent,
// so tests defer it to unblock the planner on a failure path too.
func (h *planHold) Release() { h.released.Do(func() { close(h.release) }) }

func (h *planHold) logged() []*store.PlanRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*store.PlanRecord(nil), h.records...)
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPlaceMatchesDirectPlanner(t *testing.T) {
	sys := testSystem(t)
	s := New(Config{})
	defer shutdown(t, s)
	s.Load(sys)

	req := testRequest("solo", 3)
	got, err := s.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "solo request", got, planAlone(t, sys, req, ModelInfo{}))
}

func TestPlaceNotReady(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	_, err := s.Place(context.Background(), testRequest("x", 1))
	if !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("got %v, want ErrNotReady", err)
	}
	if s.Ready() {
		t.Fatal("service without an artifact reports ready")
	}
}

func TestPlaceRejectsInvalidRequests(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	s.Load(testSystem(t))
	cases := []*PlacementRequest{
		nil,
		{},
		{Tasks: []TaskRequest{{Name: "", TPmOnly: 1, TDramOnly: 0.5}}},
		{Tasks: []TaskRequest{{Name: "x", TPmOnly: 0, TDramOnly: 0.5}}},
		{Tasks: []TaskRequest{{Name: "x", TPmOnly: 1, TDramOnly: 2}}},
		{Tasks: []TaskRequest{{Name: "x", TPmOnly: 1, TDramOnly: 0.5, TotalAccesses: math.NaN()}}},
		{Tasks: []TaskRequest{{Name: "x", TPmOnly: 1, TDramOnly: 0.5,
			Events: map[string]float64{"e": math.Inf(1)}}}},
		{Tasks: make([]TaskRequest, maxTasksPerRequest+1)},
	}
	for i, req := range cases {
		if _, err := s.Place(context.Background(), req); !errors.Is(err, merr.ErrBadApp) {
			t.Fatalf("case %d: got %v, want ErrBadApp", i, err)
		}
	}
}

func TestPreCanceledContext(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	s.Load(testSystem(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Place(ctx, testRequest("x", 1))
	if !errors.Is(err, merr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled matching context.Canceled", err)
	}
}

func TestQueueOverflowRejectsWithCapacity(t *testing.T) {
	// A service whose planner is not running cannot drain its queue, so
	// fills deterministically.
	s := &Service{
		cfg:   Config{QueueDepth: 2, Tolerance: 0.01}.withDefaults(),
		queue: make(chan *pending, 2),
		done:  make(chan struct{}),
	}
	s.Load(testSystem(t))
	for i := 0; i < 2; i++ {
		if err := s.enqueue(&pending{ctx: context.Background(), req: testRequest("x", 1), resp: make(chan result, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Place(context.Background(), testRequest("x", 1))
	if !errors.Is(err, merr.ErrCapacity) {
		t.Fatalf("got %v, want ErrCapacity", err)
	}
	// Drain manually so a late planner start cannot leak.
	close(s.queue)
	close(s.done)
}

// loadRequest is request i of TestPlaceIndependentOfConcurrentLoad:
// two tasks of 150 pages each, distinct from every other i. One alone
// already oversubscribes testSystem's 128 DRAM pages, so a plan that
// shared DRAM across requests would shrink every grant.
func loadRequest(i int) *PlacementRequest {
	req := &PlacementRequest{}
	for j := 0; j < 2; j++ {
		req.Tasks = append(req.Tasks, TaskRequest{
			Name:           fmt.Sprintf("r%d-t%d", i, j),
			TPmOnly:        2.0 + 0.3*float64(i) + 0.1*float64(j),
			TDramOnly:      0.8,
			Events:         map[string]float64{pmc.SelectedEvents[0]: 0.5},
			TotalAccesses:  4e6 + 1e5*float64(j),
			FootprintPages: 150,
		})
	}
	return req
}

// placeAll sends every request concurrently and returns the answers in
// request order. during, when non-nil, runs on the test goroutine while
// the requests are in flight.
func placeAll(t *testing.T, s *Service, reqs []*PlacementRequest, during func()) []*PlacementResponse {
	t.Helper()
	outs := make([]*PlacementResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Place(context.Background(), reqs[i])
		}(i)
	}
	if during != nil {
		during()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return outs
}

// TestPlaceIndependentOfConcurrentLoad pins that a plan depends only on
// (model, request). n distinct requests wait in the queue together, on a
// node whose DRAM each one alone oversubscribes; each must get exactly
// the answer MinMakespanPlan gives it alone, from one plan of its own.
// A cache-enabled service must answer the same, then replay the same
// plans with cached as the only difference.
func TestPlaceIndependentOfConcurrentLoad(t *testing.T) {
	sys := testSystem(t)
	const n = 8
	reqs := make([]*PlacementRequest, n)
	for i := range reqs {
		reqs[i] = loadRequest(i)
	}
	// queued holds the planner in its first plan until all n requests
	// are admitted, so the other n-1 wait in the queue together.
	queued := func(reg *obs.Registry, hold *planHold, requests float64) func() {
		return func() {
			waitUntil(t, "requests queued behind the first plan", func() bool {
				return len(hold.logged()) == 1 && reg.Counter("serve.requests").Value() == requests
			})
			hold.Release()
		}
	}

	reg := obs.New()
	hold := newPlanHold()
	s := New(Config{Obs: reg, PlanLog: hold.log})
	defer shutdown(t, s)
	defer hold.Release()
	s.Load(sys)
	outs := placeAll(t, s, reqs, queued(reg, hold, n))
	for i, out := range outs {
		sameJSON(t, fmt.Sprintf("request %d", i), out, planAlone(t, sys, reqs[i], ModelInfo{}))
	}
	if got := reg.Counter("serve.requests").Value(); got != n {
		t.Fatalf("request counter %v, want %v", got, n)
	}
	if got := reg.Counter("serve.batches").Value(); got != n {
		t.Fatalf("%v plans for %d requests, want one each", got, n)
	}
	// The plan log holds one record per request, naming exactly that
	// request's tasks.
	recs := hold.logged()
	if len(recs) != n {
		t.Fatalf("plan log has %d records, want %d", len(recs), n)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[strings.Join(r.Tasks, ",")] = true
	}
	for i, req := range reqs {
		names := make([]string, len(req.Tasks))
		for j, task := range req.Tasks {
			names[j] = task.Name
		}
		if !seen[strings.Join(names, ",")] {
			t.Fatalf("no plan record holds exactly request %d's tasks %v", i, names)
		}
	}

	// The same load on a cache-enabled replica of the same system: the
	// misses plan alone, and a concurrent repeat replays those plans.
	path := filepath.Join(t.TempDir(), "sys.merch")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	creg := obs.New()
	chold := newPlanHold()
	cs := New(Config{Obs: creg, PlanLog: chold.log, CacheEntries: 64})
	defer shutdown(t, cs)
	defer chold.Release()
	if _, err := cs.LoadArtifactAs(context.Background(), path, "v1"); err != nil {
		t.Fatal(err)
	}
	misses := placeAll(t, cs, reqs, queued(creg, chold, n))
	hits := placeAll(t, cs, reqs, nil)
	for i := range reqs {
		want := planAlone(t, sys, reqs[i], cs.Info())
		sameJSON(t, fmt.Sprintf("cache miss %d", i), misses[i], want)
		want.Cached = true
		sameJSON(t, fmt.Sprintf("cache hit %d", i), hits[i], want)
	}
	if got := creg.Counter("serve.batches").Value(); got != n {
		t.Fatalf("cache-enabled replica ran %v plans for %d distinct requests, want one each", got, n)
	}
}

func TestGracefulDrainCompletesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.New()
	hold := newPlanHold()
	defer hold.Release()
	s := New(Config{Obs: reg, PlanLog: hold.log})
	s.Load(testSystem(t))

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]*PlacementResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Place(context.Background(), testRequest("drain", 1))
		}(i)
	}
	// Park the planner in the first plan with the others still queued,
	// then drain: the queued requests must be answered too.
	waitUntil(t, "requests queued behind the first plan", func() bool {
		return len(hold.logged()) == 1 && reg.Counter("serve.requests").Value() == n
	})
	if got := len(s.queue); got != n-1 {
		t.Fatalf("%d requests queued when the drain starts, want %d", got, n-1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	waitUntil(t, "the drain to start", func() bool { return !s.Ready() })
	hold.Release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("in-flight request %d lost during drain: %v", i, errs[i])
		}
		if outs[i] == nil || len(outs[i].Tasks) != 1 {
			t.Fatalf("in-flight request %d got no plan", i)
		}
	}

	// After drain: new requests rejected, readiness down, no goroutines
	// leaked, and a second Shutdown is a no-op.
	if _, err := s.Place(context.Background(), testRequest("late", 1)); !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("post-drain request: got %v, want ErrNotReady", err)
	}
	if s.Ready() {
		t.Fatal("draining service reports ready")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
}

func TestHTTPEndpoints(t *testing.T) {
	reg := obs.New()
	s := New(Config{Obs: reg})
	srv := httptest.NewServer(s.Handler(HTTPConfig{RequestTimeout: 2 * time.Second}))
	defer srv.Close()
	defer shutdown(t, s)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before load: %d, want 503", code)
	}
	// A placement request before load answers 503 too.
	raw, _ := json.Marshal(testRequest("x", 1))
	resp, err := http.Post(srv.URL+"/place", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("place before load: %d, want 503", resp.StatusCode)
	}

	s.Load(testSystem(t))
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz after load: %d, want 200", code)
	}

	resp, err = http.Post(srv.URL+"/place", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out PlacementResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(out.Tasks) != 1 || out.Tasks[0].Name != "x" {
		t.Fatalf("place: %d %+v", resp.StatusCode, out)
	}

	// Malformed body → 400; GET → 405.
	resp, err = http.Post(srv.URL+"/place", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed place: %d, want 400", resp.StatusCode)
	}
	if code, _ := get("/place"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET place: %d, want 405", code)
	}

	// Metrics endpoint serves the registry snapshot.
	code, body := get("/metricsz")
	if code != 200 || !strings.Contains(body, "serve.requests") {
		t.Fatalf("metricsz: %d %q", code, body)
	}
}

// TestPlaceRejectsTrailingBytes: a /place body is one request. A real
// replica answers 400 to a body with anything but whitespace after the
// request — garbage, a stray ] or }, a second request — and 200 to one
// ending in a newline.
func TestPlaceRejectsTrailingBytes(t *testing.T) {
	s := New(Config{})
	defer shutdown(t, s)
	s.Load(testSystem(t))
	srv := httptest.NewServer(s.Handler(HTTPConfig{}))
	defer srv.Close()
	raw, err := json.Marshal(testRequest("x", 1))
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, c := range []struct {
		body string
		want int
	}{
		{body + "garbage", http.StatusBadRequest},
		{body + "]", http.StatusBadRequest},
		{body + "}", http.StatusBadRequest},
		{body + body, http.StatusBadRequest},
		{body + "\n" + body, http.StatusBadRequest},
		{body, http.StatusOK},
		{body + "\n", http.StatusOK},
		{" " + body + " \t\r\n", http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/place", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("body %q: %d (%s), want %d", c.body, resp.StatusCode, msg, c.want)
		}
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{merr.Errorf(merr.ErrBadApp, "x"), 400},
		{merr.Errorf(merr.ErrCapacity, "x"), 429},
		{merr.Errorf(merr.ErrNotReady, "x"), 503},
		{merr.Canceled("x", context.DeadlineExceeded), 504},
		{merr.Canceled("x", context.Canceled), 0},
		{errors.New("boom"), 500},
	}
	for i, tc := range cases {
		if got := httpStatus(tc.err); got != tc.want {
			t.Fatalf("case %d: %d, want %d", i, got, tc.want)
		}
	}
}
