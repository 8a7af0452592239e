// Package serve is the placement service behind cmd/merchserved: a
// long-lived daemon that loads a trained-system artifact once and then
// answers placement requests — the production shape of the paper's
// "train once, serve many" split (offline correlation-function training,
// online Algorithm 1 planning).
//
// Requests flow through a bounded queue into a single planner goroutine
// that answers them one at a time, each with its own MinMakespanPlan
// over the system's full DRAM capacity: one request is the tasks of one
// application between two synchronization points, exactly what
// Algorithm 1 splits a node's DRAM across in the paper. A plan
// therefore depends only on (model, request). Backpressure is explicit
// — a full queue rejects with merr.ErrCapacity (HTTP 429) instead of
// queueing unboundedly — and shutdown is graceful: draining stops new
// admissions while every in-flight request still gets its answer.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"sync"
	"time"

	"merchandiser"
	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/rcache"
	"merchandiser/internal/store"
)

// Request caps, defending the shared planner against one oversized
// client.
const (
	maxTasksPerRequest = 256
)

// TaskRequest is one task's model inputs in a placement request — the
// JSON form of placement.TaskInput.
type TaskRequest struct {
	Name string `json:"name"`
	// TPmOnly and TDramOnly are the predicted PM-only and DRAM-only
	// execution times (Equation 2's bounds).
	TPmOnly   float64 `json:"t_pm_only"`
	TDramOnly float64 `json:"t_dram_only"`
	// Events are the task's workload characteristics (PMC name → value).
	Events map[string]float64 `json:"events,omitempty"`
	// TotalAccesses is the estimated main-memory access count of the
	// upcoming instance (Equation 1 output).
	TotalAccesses float64 `json:"total_accesses"`
	// FootprintPages is the page count of the task's data objects.
	FootprintPages uint64 `json:"footprint_pages"`
}

// PlacementRequest asks the service to plan DRAM shares for a set of
// tasks that will run concurrently.
type PlacementRequest struct {
	Tasks []TaskRequest `json:"tasks"`
}

// TaskPlacement is one task's share of a plan.
type TaskPlacement struct {
	Name         string  `json:"name"`
	DRAMAccesses float64 `json:"dram_accesses"`
	GoalRatio    float64 `json:"goal_ratio"`
	DRAMPages    uint64  `json:"dram_pages"`
	Predicted    float64 `json:"predicted_seconds"`
}

// PlacementResponse is the plan for one request. BatchSize is always 1:
// every request is planned alone; the field stays in the wire format
// for clients that read it. ModelVersion and ModelSHA256 identify the
// artifact whose model planned this request, so a client behind a
// mixed-version fleet can tell which model answered. Cached marks a
// response that skipped the planner: served from the response cache or
// collapsed into another caller's identical in-flight request. It is
// omitted when false, so the cache-off wire format is byte-identical to
// a build without the cache.
type PlacementResponse struct {
	Tasks        []TaskPlacement `json:"tasks"`
	Rounds       int             `json:"rounds"`
	Makespan     float64         `json:"predicted_makespan_seconds"`
	BatchSize    int             `json:"batch_size"`
	ModelVersion string          `json:"model_version,omitempty"`
	ModelSHA256  string          `json:"model_sha256,omitempty"`
	Cached       bool            `json:"cached,omitempty"`
}

// NTasks and CanonTask let the cache hash a request without copying its
// tasks: *PlacementRequest is an rcache.TaskList.
func (r *PlacementRequest) NTasks() int { return len(r.Tasks) }

// CanonTask returns task i's semantic fields in the canonical form the
// request hash is computed over.
func (r *PlacementRequest) CanonTask(i int) rcache.Task {
	t := &r.Tasks[i]
	return rcache.Task{
		Name:           t.Name,
		TPmOnly:        t.TPmOnly,
		TDramOnly:      t.TDramOnly,
		Events:         t.Events,
		TotalAccesses:  t.TotalAccesses,
		FootprintPages: t.FootprintPages,
	}
}

// ModelInfo identifies a loaded artifact: the registry version name and
// the SHA-256 of the artifact file. Both are empty for a system
// installed directly via Load (no artifact involved).
type ModelInfo struct {
	Version string `json:"version,omitempty"`
	SHA256  string `json:"sha256,omitempty"`
}

func validRequest(req *PlacementRequest) error {
	if req == nil || len(req.Tasks) == 0 {
		return merr.Errorf(merr.ErrBadApp, "serve: request has no tasks")
	}
	if len(req.Tasks) > maxTasksPerRequest {
		return merr.Errorf(merr.ErrBadApp, "serve: %d tasks exceed the per-request limit %d", len(req.Tasks), maxTasksPerRequest)
	}
	for i, t := range req.Tasks {
		if t.Name == "" {
			return merr.Errorf(merr.ErrBadApp, "serve: task %d is unnamed", i)
		}
		if !finite(t.TPmOnly) || t.TPmOnly <= 0 {
			return merr.Errorf(merr.ErrBadApp, "serve: task %q needs a positive PM-only time", t.Name)
		}
		if !finite(t.TDramOnly) || t.TDramOnly <= 0 || t.TDramOnly > t.TPmOnly {
			return merr.Errorf(merr.ErrBadApp, "serve: task %q needs 0 < t_dram_only <= t_pm_only", t.Name)
		}
		if !finite(t.TotalAccesses) || t.TotalAccesses < 0 {
			return merr.Errorf(merr.ErrBadApp, "serve: task %q has an invalid access count", t.Name)
		}
		for ev, v := range t.Events {
			if !finite(v) {
				return merr.Errorf(merr.ErrBadApp, "serve: task %q event %q is non-finite", t.Name, ev)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (t *TaskRequest) toInput() placement.TaskInput {
	values := make(map[string]float64, len(t.Events))
	for k, v := range t.Events {
		values[k] = v
	}
	return placement.TaskInput{
		Name:           t.Name,
		TPmOnly:        t.TPmOnly,
		TDramOnly:      t.TDramOnly,
		Events:         pmc.Counters{Task: t.Name, Values: values},
		TotalAccesses:  t.TotalAccesses,
		FootprintPages: t.FootprintPages,
	}
}

// Config tunes the service.
type Config struct {
	// QueueDepth bounds how many requests may wait for the planner; an
	// overflowing queue rejects with merr.ErrCapacity. Default 64.
	QueueDepth int
	// Deprecated: ignored; every request is planned alone.
	MaxBatch int
	// Deprecated: ignored; every request is planned alone.
	BatchWindow time.Duration
	// Tolerance is MinMakespanPlan's binary-search tolerance. Default 0.01.
	Tolerance float64
	// CacheEntries bounds the placement-response cache: responses are
	// cached under (model SHA-256, canonical request hash), so a hit skips
	// the planner entirely and a model promotion orphans every old entry.
	// 0 (the default) disables the cache; disabled, the service behaves
	// byte-identically to a build without it.
	CacheEntries int
	// Obs, when non-nil, receives service metrics (request, rejection and
	// plan counters; serve.batches counts plans, one per planned
	// request). It is also what /metricsz serves.
	Obs *obs.Registry
	// PlanLog, when non-nil, receives one plan record (the artifact-store
	// form) per planned request, after its plan succeeds and before its
	// caller is answered. Called from the single planner goroutine, one
	// record at a time; keep it fast.
	PlanLog func(*store.PlanRecord)
	// Source, when non-nil, resolves what the next Reload should restore:
	// e.g. the registry's CURRENT with the digest recorded at publish.
	// Reload without a Source fails.
	Source func(ctx context.Context) (ArtifactRef, error)
	// RestoreOptions pass to every artifact restore (boot and reloads) —
	// typically WithObserver so restored models record into /metricsz.
	RestoreOptions []merchandiser.RestoreOption
}

// ArtifactRef names an artifact to restore.
type ArtifactRef struct {
	Path string
	// Version stamps the restored model ("" records "unversioned").
	Version string
	// SHA256, when set, is the hex digest the artifact's bytes must hash
	// to, such as a registry's record from publish time. Bytes that hash
	// differently are refused with merr.ErrBadArtifact before any
	// restore.
	SHA256 string
}

// read reads the artifact and hashes it, once, refusing bytes that do
// not match ref.SHA256 when it is set. It returns the bytes and their hex
// SHA-256.
func (ref ArtifactRef) read() ([]byte, string, error) {
	data, err := os.ReadFile(ref.Path)
	if err != nil {
		return nil, "", merr.Wrap(merr.ErrBadArtifact, "serve: read artifact", err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if ref.SHA256 != "" && got != ref.SHA256 {
		return nil, "", merr.Errorf(merr.ErrBadArtifact, "serve: artifact %s is corrupt: recorded sha %.16s…, file hashes %.16s…", ref.Path, ref.SHA256, got)
	}
	return data, got, nil
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.01
	}
	return c
}

// pending is one enqueued request. resp is buffered so the planner never
// blocks on a caller that already gave up.
type pending struct {
	ctx  context.Context
	req  *PlacementRequest
	resp chan result
}

type result struct {
	out *PlacementResponse
	err error
}

// loadedModel bundles everything one artifact load installs: the system
// and its identity. The bundle swaps as a single pointer, so a plan can
// never pair one model's answer with another model's version stamp.
type loadedModel struct {
	sys  *merchandiser.System
	info ModelInfo
}

// Service is the placement daemon core: an optional loaded system, a
// bounded queue, and one planner goroutine. Create with New, feed it a
// system via Load or LoadArtifactAs, swap it live with Reload, stop it
// with Shutdown.
type Service struct {
	cfg Config

	sysMu sync.RWMutex
	cur   *loadedModel

	// reloadMu serializes Reload calls: concurrent SIGHUPs and /reloadz
	// posts coalesce into one restore at a time.
	reloadMu sync.Mutex

	// mu guards draining and queue sends, making close(queue) safe: once
	// draining is set, no sender can race the close.
	mu       sync.Mutex
	draining bool
	queue    chan *pending
	done     chan struct{}

	// cache/flight/hashers exist only when Config.CacheEntries > 0; all
	// three are nil-safe, so the cache-off request path has no branches
	// beyond the one in Place.
	cache   *rcache.Cache
	flight  *rcache.Group
	hashers sync.Pool
}

// New builds the service and starts its planner.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		queue: make(chan *pending, cfg.QueueDepth),
		done:  make(chan struct{}),
	}
	if cfg.CacheEntries > 0 {
		s.cache = rcache.New(rcache.Config{Entries: cfg.CacheEntries, Obs: cfg.Obs, Metric: "serve.cache_"})
		s.flight = &rcache.Group{}
		s.hashers.New = func() any { return rcache.NewHasher() }
	}
	go s.planner()
	return s
}

// Load installs a restored (or freshly trained) system with no artifact
// identity. The service reports ready once a system is loaded.
func (s *Service) Load(sys *merchandiser.System) {
	s.install(&loadedModel{sys: sys})
}

// install atomically swaps the serving bundle. The planner reads the
// bundle once per plan, so the swap lands exactly between plans: every
// request already picked up by the planner is answered by the model
// that planned it, and /readyz never observes a nil system.
func (s *Service) install(lm *loadedModel) {
	s.sysMu.Lock()
	s.cur = lm
	s.sysMu.Unlock()
}

// LoadArtifactAs restores the system artifact at path with
// Config.RestoreOptions and installs it under version (e.g. the
// registry version the path was resolved from; "" records
// "unversioned").
func (s *Service) LoadArtifactAs(ctx context.Context, path, version string) (*merchandiser.System, error) {
	return s.LoadArtifact(ctx, ArtifactRef{Path: path, Version: version})
}

// LoadArtifact reads the artifact ref names once, refuses it when it does
// not hash to ref.SHA256 (if set), restores it with
// Config.RestoreOptions and installs it. The restore is timed as the
// volatile serve.restore_seconds wall timer on the service's registry —
// the daemon's cold-start cost, visible in /metricsz.
func (s *Service) LoadArtifact(ctx context.Context, ref ArtifactRef) (*merchandiser.System, error) {
	data, sum, err := ref.read()
	if err != nil {
		return nil, err
	}
	lm, err := s.restoreBundle(ctx, data, sum, ref.Version)
	if err != nil {
		return nil, err
	}
	s.install(lm)
	return lm.sys, nil
}

// restoreBundle restores the system from artifact bytes its caller has
// already read and hashed (sum is their hex SHA-256). It runs entirely
// off the serving path: the current model keeps answering while a
// reload restores.
func (s *Service) restoreBundle(ctx context.Context, data []byte, sum, version string) (*loadedModel, error) {
	if version == "" {
		version = "unversioned"
	}
	stop := s.cfg.Obs.WallTimer("serve.restore_seconds").Start()
	sys, err := merchandiser.Restore(ctx, bytes.NewReader(data), s.cfg.RestoreOptions...)
	stop()
	if err != nil {
		return nil, err
	}
	return &loadedModel{sys: sys, info: ModelInfo{Version: version, SHA256: sum}}, nil
}

// Reload re-resolves Config.Source, reads and hashes the artifact it
// names once and, if those bytes match the source's digest and differ
// from what is serving, restores them in the background and swaps them
// in between plans — zero admitted requests dropped, /readyz never
// flaps. It returns the (possibly unchanged) loaded info and whether a
// swap happened. Concurrent Reloads serialize.
func (s *Service) Reload(ctx context.Context) (ModelInfo, bool, error) {
	if s.cfg.Source == nil {
		return s.Info(), false, merr.Errorf(merr.ErrBadSpec, "serve: no reload source configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	ref, err := s.cfg.Source(ctx)
	if err != nil {
		s.cfg.Obs.Counter("serve.reload_errors").Inc()
		return s.Info(), false, err
	}
	data, sum, err := ref.read()
	if err != nil {
		s.cfg.Obs.Counter("serve.reload_errors").Inc()
		return s.Info(), false, err
	}
	if cur := s.Info(); cur.SHA256 == sum {
		s.cfg.Obs.Counter("serve.reload_noops").Inc()
		return cur, false, nil
	}
	lm, err := s.restoreBundle(ctx, data, sum, ref.Version)
	if err != nil {
		s.cfg.Obs.Counter("serve.reload_errors").Inc()
		return s.Info(), false, err
	}
	s.install(lm)
	s.cfg.Obs.Counter("serve.reloads").Inc()
	return lm.info, true, nil
}

// Info returns the identity of the loaded artifact (zero for none or for
// a Load-installed system).
func (s *Service) Info() ModelInfo {
	s.sysMu.RLock()
	defer s.sysMu.RUnlock()
	if s.cur == nil {
		return ModelInfo{}
	}
	return s.cur.info
}

// Ready reports whether the service can answer placement requests: an
// artifact is loaded and the service is not draining.
func (s *Service) Ready() bool {
	s.sysMu.RLock()
	loaded := s.cur != nil
	s.sysMu.RUnlock()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return loaded && !draining
}

func (s *Service) loaded() *loadedModel {
	s.sysMu.RLock()
	defer s.sysMu.RUnlock()
	return s.cur
}

// Place answers one placement request. It validates, consults the
// response cache when one is configured (a hit or a collapse into an
// identical in-flight request skips the planner entirely), then
// enqueues (rejecting with merr.ErrCapacity on overflow and
// merr.ErrNotReady before an artifact is loaded or during drain) and
// waits for the planner — or for ctx, returning merr.ErrCanceled if the
// caller gives up first.
func (s *Service) Place(ctx context.Context, req *PlacementRequest) (*PlacementResponse, error) {
	if err := validRequest(req); err != nil {
		s.cfg.Obs.Counter("serve.rejected_invalid").Inc()
		return nil, err
	}
	cur := s.loaded()
	if cur == nil {
		s.cfg.Obs.Counter("serve.rejected_not_ready").Inc()
		return nil, merr.Errorf(merr.ErrNotReady, "serve: no artifact loaded")
	}
	if err := merr.FromContext(ctx, "serve: request canceled"); err != nil {
		return nil, err
	}
	// A Load-installed system has no artifact SHA: no key half, no
	// caching. The key's SHA comes from the same bundle pointer the
	// planner reads, so a promote mid-request can only make us miss and
	// recompute — never serve the new model's plan under the old key.
	if s.cache == nil || cur.info.SHA256 == "" {
		return s.placeQueued(ctx, req)
	}
	return s.placeCached(ctx, req, cur.info.SHA256)
}

// placeQueued is the uncached request path: enqueue and wait for the
// planner. It is byte-for-byte the pre-cache Place tail.
func (s *Service) placeQueued(ctx context.Context, req *PlacementRequest) (*PlacementResponse, error) {
	p := &pending{ctx: ctx, req: req, resp: make(chan result, 1)}
	if err := s.enqueue(p); err != nil {
		return nil, err
	}
	s.cfg.Obs.Counter("serve.requests").Inc()
	select {
	case r := <-p.resp:
		return r.out, r.err
	case <-ctx.Done():
		return nil, merr.FromContext(ctx, "serve: request canceled")
	}
}

// cachedPlan is a response in canonical task order — the form the cache
// and singleflight share, so a request that is a task-permutation of
// the one that populated the entry still gets its tasks back in its own
// order. A cachedPlan is immutable once built.
type cachedPlan struct {
	tasks    []TaskPlacement
	rounds   int
	makespan float64
	version  string
	sha      string
}

// canonicalPlan reorders a freshly computed response (caller task
// order) into canonical order. perm[pos] is the caller index of the
// task at canonical position pos.
func canonicalPlan(out *PlacementResponse, perm []int) *cachedPlan {
	cp := &cachedPlan{
		tasks:    make([]TaskPlacement, len(out.Tasks)),
		rounds:   out.Rounds,
		makespan: out.Makespan,
		version:  out.ModelVersion,
		sha:      out.ModelSHA256,
	}
	for pos, idx := range perm {
		cp.tasks[pos] = out.Tasks[idx]
	}
	return cp
}

// response materializes the plan in the caller's task order.
func (cp *cachedPlan) response(perm []int, cached bool) *PlacementResponse {
	out := &PlacementResponse{
		Tasks:        make([]TaskPlacement, len(cp.tasks)),
		Rounds:       cp.rounds,
		Makespan:     cp.makespan,
		BatchSize:    1,
		ModelVersion: cp.version,
		ModelSHA256:  cp.sha,
		Cached:       cached,
	}
	for pos, idx := range perm {
		out.Tasks[idx] = cp.tasks[pos]
	}
	return out
}

// placeCached is the cached request path: hash the request, look up
// (model SHA, request hash), and on a miss collapse into any identical
// in-flight computation before queueing for the planner.
func (s *Service) placeCached(ctx context.Context, req *PlacementRequest, modelSHA string) (*PlacementResponse, error) {
	h := s.hashers.Get().(*rcache.Hasher)
	digest, perm := h.Hash(req)
	key := rcache.Key{Model: modelSHA, Request: digest}
	if v, ok := s.cache.Get(key); ok {
		out := v.(*cachedPlan).response(perm, true)
		s.hashers.Put(h)
		s.cfg.Obs.Counter("serve.requests").Inc()
		return out, nil
	}
	// The hasher's perm aliases its scratch; copy it before the pool can
	// hand the hasher to another goroutine.
	permCopy := append(make([]int, 0, len(perm)), perm...)
	s.hashers.Put(h)

	v, shared, err := s.flight.Do(ctx, key, func() (any, error) {
		out, err := s.placeQueued(ctx, req)
		if err != nil {
			return nil, err
		}
		cp := canonicalPlan(out, permCopy)
		// Store only under the SHA that actually answered: a reload can
		// swap the bundle between our key derivation and the plan that
		// answered us, and caching that response under the old SHA would
		// serve the new model's plan after a rollback.
		if out.ModelSHA256 == key.Model {
			s.cache.Put(key, cp)
		}
		return cp, nil
	})
	if shared {
		s.cfg.Obs.Counter("serve.cache_collapsed").Inc()
	}
	if err != nil {
		// A shared failure is the leader's: if the leader's caller gave up
		// but we are still live, compute for ourselves instead of
		// propagating a cancellation the client never issued.
		if shared && errors.Is(err, merr.ErrCanceled) && merr.FromContext(ctx, "") == nil {
			return s.placeQueued(ctx, req)
		}
		return nil, err
	}
	cp := v.(*cachedPlan)
	if shared {
		s.cfg.Obs.Counter("serve.requests").Inc()
		return cp.response(permCopy, true), nil
	}
	return cp.response(permCopy, false), nil
}

// CacheStats reports the response cache's counters (zero when the cache
// is off) plus how many requests collapsed into an in-flight duplicate.
func (s *Service) CacheStats() (rcache.Stats, uint64) {
	return s.cache.Stats(), s.flight.Collapsed()
}

func (s *Service) enqueue(p *pending) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.cfg.Obs.Counter("serve.rejected_draining").Inc()
		return merr.Errorf(merr.ErrNotReady, "serve: draining")
	}
	select {
	case s.queue <- p:
		return nil
	default:
		s.cfg.Obs.Counter("serve.rejected_queue_full").Inc()
		return merr.Errorf(merr.ErrCapacity, "serve: request queue full (%d waiting)", s.cfg.QueueDepth)
	}
}

// Shutdown drains the service: new requests are rejected immediately,
// every request already admitted is answered, and the planner goroutine
// exits. It returns once the drain completes or ctx expires (the planner
// keeps draining in the background either way).
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return merr.FromContext(ctx, "serve: shutdown interrupted")
	}
}

// planner is the single consumer: it answers queued requests one at a
// time, in arrival order.
func (s *Service) planner() {
	defer close(s.done)
	for p := range s.queue {
		s.plan(p)
	}
}

// plan answers one request with MinMakespanPlan over that request's
// tasks and the full DRAM capacity.
func (s *Service) plan(p *pending) {
	// A caller that gave up while queued already returned from Place;
	// the buffered send below cannot block.
	if err := merr.FromContext(p.ctx, "serve: request canceled in queue"); err != nil {
		p.resp <- result{err: err}
		return
	}
	// One bundle read per plan: the request plans on one model and is
	// stamped with that model's identity. A concurrent Reload swaps the
	// bundle pointer, so its new model takes effect at the next plan —
	// never mid-plan.
	cur := s.loaded()
	if cur == nil {
		p.resp <- result{err: merr.Errorf(merr.ErrNotReady, "serve: no artifact loaded")}
		return
	}
	tasks := make([]placement.TaskInput, len(p.req.Tasks))
	for i := range p.req.Tasks {
		tasks[i] = p.req.Tasks[i].toInput()
	}
	plan, err := placement.MinMakespanPlan(tasks, cur.sys.Spec.CapacityPages(hm.DRAM), cur.sys.Perf, s.cfg.Tolerance)
	if err != nil {
		p.resp <- result{err: err}
		return
	}
	s.cfg.Obs.Counter("serve.batches").Inc()
	s.cfg.Obs.Counter("serve.planned_tasks").Add(float64(len(tasks)))
	if s.cfg.PlanLog != nil {
		rec := store.PlanRecordFrom(tasks, plan)
		rec.ModelVersion = cur.info.Version
		rec.ModelSHA256 = cur.info.SHA256
		s.cfg.PlanLog(rec)
	}
	out := &PlacementResponse{
		Tasks:        make([]TaskPlacement, len(tasks)),
		Rounds:       plan.Rounds,
		Makespan:     plan.PredictedMakespan(),
		BatchSize:    1,
		ModelVersion: cur.info.Version,
		ModelSHA256:  cur.info.SHA256,
	}
	for j, t := range tasks {
		out.Tasks[j] = TaskPlacement{
			Name:         t.Name,
			DRAMAccesses: plan.DRAMAccesses[j],
			GoalRatio:    plan.GoalRatio[j],
			DRAMPages:    plan.DRAMPages[j],
			Predicted:    plan.Predicted[j],
		}
	}
	p.resp <- result{out: out}
}
