package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"merchandiser"
	"merchandiser/internal/gate"
	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/serve"
)

// The fleet runs at the merchserved and merchgate defaults, with both
// response caches on at the sizing of the committed cache benchmark
// (BENCH_10).
const (
	replicas       = 2
	queueDepth     = 64
	maxBatch       = 16
	batchWindow    = 2 * time.Millisecond
	planTol        = 0.01 // serve.Config's default Tolerance; reference plans use it too
	replicaCache   = 4096
	gateCache      = 128
	requestTimeout = 10 * time.Second // merchserved -timeout
	clientTimeout  = 30 * time.Second
	warmupRequests = 200
	setupRounds    = 3
)

// quickModel is the serving workloads' trained system, saved as the
// binary artifact every replica restores.
type quickModel struct {
	artifact string
	data     []byte
	sha      string
	r2       float64
	samples  int
	trainS   float64
	capacity uint64
	events   eventRange
}

func trainQuick(ctx context.Context, dir string) (*quickModel, error) {
	start := time.Now()
	sys, err := merchandiser.NewSystemConfig(ctx, merchandiser.DefaultSpec(), merchandiser.TrainConfig{Level: merchandiser.TrainQuick})
	if err != nil {
		return nil, err
	}
	m := &quickModel{
		artifact: filepath.Join(dir, "quick.artifact"),
		r2:       sys.TrainedR2,
		samples:  sys.Meta.Samples,
		trainS:   time.Since(start).Seconds(),
		capacity: sys.Spec.CapacityPages(hm.DRAM),
	}
	if sys.Meta.Stats == nil {
		return nil, errors.New("perfbench: trained system carries no feature statistics")
	}
	if m.events, err = rangeFromStats(sys.Meta.Stats.Names, sys.Meta.Stats.Min, sys.Meta.Stats.Max); err != nil {
		return nil, err
	}
	if err := sys.SaveFileFormat(m.artifact, merchandiser.SaveBinary); err != nil {
		return nil, err
	}
	if m.data, err = os.ReadFile(m.artifact); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(m.data)
	m.sha = hex.EncodeToString(sum[:])
	return m, nil
}

// restorePerf restores the artifact's model the way a replica does, for
// reference plans and layer replays.
func (m *quickModel) restorePerf(ctx context.Context) (*model.PerfModel, error) {
	sys, err := merchandiser.Restore(ctx, bytes.NewReader(m.data))
	if err != nil {
		return nil, err
	}
	return sys.Perf, nil
}

type replica struct {
	svc *serve.Service
	srv *http.Server
	reg *obs.Registry
}

// fleet is one gate in front of two replicas, each on its own loopback
// listener, built from the same public constructors the daemons use.
type fleet struct {
	replicas []*replica
	gate     *gate.Gate
	gsrv     *http.Server
	greg     *obs.Registry
	url      string
	serving  sync.WaitGroup
	closed   sync.Once
}

// bootFleet starts the fleet on m's artifact and returns once the gate
// routes to both replicas on m's model, so its cache is engaged. A
// non-nil tracer wraps the handlers, the gate's upstream client and
// the plan log.
func bootFleet(ctx context.Context, m *quickModel, tr *tracer) (*fleet, error) {
	f := &fleet{greg: obs.New()}
	var urls []string
	for i := 0; i < replicas; i++ {
		reg := obs.New()
		cfg := serve.Config{
			QueueDepth:     queueDepth,
			MaxBatch:       maxBatch,
			BatchWindow:    batchWindow,
			Tolerance:      planTol,
			CacheEntries:   replicaCache,
			Obs:            reg,
			RestoreOptions: []merchandiser.RestoreOption{merchandiser.WithObserver(reg)},
		}
		if tr != nil {
			cfg.PlanLog = tr.planLog(i)
		}
		r := &replica{svc: serve.New(cfg), reg: reg}
		f.replicas = append(f.replicas, r)
		if _, err := r.svc.LoadArtifactAs(ctx, m.artifact, "v1"); err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = r.svc.Handler(serve.HTTPConfig{RequestTimeout: requestTimeout})
		if tr != nil {
			h = tr.wrapReplica(i, h)
		}
		url, err := f.listen(h, &r.srv)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	gcfg := gate.Config{Backends: urls, CacheEntries: gateCache, Obs: f.greg}
	if tr != nil {
		gcfg.Client = tr.upstreamClient()
	}
	f.gate = gate.New(gcfg)
	var h http.Handler = f.gate.Handler()
	if tr != nil {
		h = tr.wrapGate(h)
	}
	var err error
	if f.url, err = f.listen(h, &f.gsrv); err != nil {
		f.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !f.converged(m.sha) {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("perfbench: gate did not see both replicas ready within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler, srv **http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &http.Server{Handler: h}
	*srv = s
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		s.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) converged(sha string) bool {
	backends := f.gate.Fleet()
	for _, b := range backends {
		if !b.Healthy || b.SHA256 != sha {
			return false
		}
	}
	return len(backends) == replicas
}

// close stops the gate, drains the replicas and waits for every server
// goroutine to return. Later calls do nothing.
func (f *fleet) close() {
	f.closed.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if f.gsrv != nil {
			f.gsrv.Shutdown(ctx)
		}
		if f.gate != nil {
			f.gate.Close()
		}
		for _, r := range f.replicas {
			if r.srv != nil {
				r.srv.Shutdown(ctx)
			}
			r.svc.Shutdown(ctx)
		}
		f.serving.Wait()
	})
}

// counters sums the fleet's obs counters the per-layer metrics read:
// gate ones from the gate's registry, serve and ml ones over replicas.
func (f *fleet) counters() map[string]float64 {
	c := map[string]float64{}
	for _, name := range []string{"gate.cache_hits", "gate.cache_misses", "gate.cache_collapsed", "gate.proxied", "gate.retries"} {
		c[name] = f.greg.Counter(name).Value()
	}
	for _, r := range f.replicas {
		for _, name := range []string{"serve.cache_hits", "serve.cache_misses", "serve.batches",
			"serve.rejected_queue_full", "serve.rejected_draining", "serve.rejected_not_ready", "serve.rejected_invalid",
			"ml.gbr.predictions"} {
			c[name] += r.reg.Counter(name).Value()
		}
		h := r.reg.Histogram("serve.batch_size")
		c["serve.batch_size.count"] += float64(h.Count())
		c["serve.batch_size.sum"] += h.Sum()
		t := r.reg.WallTimer("serve.restore_seconds")
		c["serve.restore_seconds"] += t.Seconds()
		c["serve.restores"] += float64(t.Count())
	}
	return c
}

// checker validates every /place answer as it arrives and keeps what
// the exact check after the timed phase needs.
type checker struct {
	sha      string
	capacity uint64

	mu        sync.Mutex
	failed    int
	firstErr  error
	responses int
	mixed     int // responses co-planned with another request
	// single maps the digest of each distinct response planned alone to
	// the index of a request that received it and how many did.
	single map[[32]byte]*singlePlan
	// seen marks serve-zipf shapes already counted in the speedup mean;
	// nil when every request is distinct.
	seen        []bool
	speedupSum  float64
	speedupSeen int
}

type singlePlan struct{ index, count int }

func newChecker(m *quickModel, repeat bool) *checker {
	c := &checker{sha: m.sha, capacity: m.capacity, single: map[[32]byte]*singlePlan{}}
	if repeat {
		c.seen = make([]bool, jobs)
	}
	return c
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// check validates one 200 answer to request index g and reports whether
// it passed.
func (c *checker) check(index int, g genRequest, body []byte) bool {
	var out serve.PlacementResponse
	if err := json.Unmarshal(body, &out); err != nil {
		c.fail(fmt.Errorf("request %d: undecodable response: %w", index, err))
		return false
	}
	if err := invariants(g.req, &out, c.capacity, c.sha); err != nil {
		c.fail(fmt.Errorf("request %d: %w", index, err))
		return false
	}
	var digest [32]byte
	if out.BatchSize == 1 {
		digest = responseDigest(&out)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.responses++
	if out.BatchSize == 1 {
		if s, ok := c.single[digest]; ok {
			s.count++
		} else {
			c.single[digest] = &singlePlan{index: index, count: 1}
		}
	} else {
		c.mixed++
	}
	if c.seen == nil || !c.seen[g.shape] {
		if c.seen != nil {
			c.seen[g.shape] = true
		}
		c.speedupSum += speedup(g.req, &out)
		c.speedupSeen++
	}
	return true
}

// invariants are what every answer must satisfy, whichever batch planned
// it: the request's tasks in order, goal ratios in [0, 1], DRAM grants
// within capacity, and the serving artifact's SHA-256.
func invariants(req *serve.PlacementRequest, out *serve.PlacementResponse, capacity uint64, sha string) error {
	if len(out.Tasks) != len(req.Tasks) {
		return fmt.Errorf("%d tasks answered for %d asked", len(out.Tasks), len(req.Tasks))
	}
	var pages uint64
	for i, t := range out.Tasks {
		if t.Name != req.Tasks[i].Name {
			return fmt.Errorf("task %d answered as %q, asked as %q", i, t.Name, req.Tasks[i].Name)
		}
		if !(t.GoalRatio >= 0 && t.GoalRatio <= 1) {
			return fmt.Errorf("task %q goal ratio %v outside [0, 1]", t.Name, t.GoalRatio)
		}
		pages += t.DRAMPages
	}
	if pages > capacity {
		return fmt.Errorf("DRAM grants sum to %d pages over capacity %d", pages, capacity)
	}
	if out.ModelSHA256 != sha {
		return fmt.Errorf("answered by model %q, serving %q", out.ModelSHA256, sha)
	}
	if out.BatchSize < 1 {
		return fmt.Errorf("batch size %d", out.BatchSize)
	}
	return nil
}

// responseDigest hashes every planned field of a response, bit for bit.
func responseDigest(out *serve.PlacementResponse) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(out.Rounds))
	put(math.Float64bits(out.Makespan))
	for _, t := range out.Tasks {
		put(uint64(len(t.Name)))
		h.Write([]byte(t.Name))
		put(math.Float64bits(t.DRAMAccesses))
		put(math.Float64bits(t.GoalRatio))
		put(t.DRAMPages)
		put(math.Float64bits(t.Predicted))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// referenceDigest plans req alone with placement.MinMakespanPlan at the
// service tolerance and digests the answer the service should give.
func referenceDigest(perf *model.PerfModel, capacity uint64, req *serve.PlacementRequest) ([32]byte, error) {
	plan, err := placement.MinMakespanPlan(taskInputs(req), capacity, perf, planTol)
	if err != nil {
		return [32]byte{}, err
	}
	out := serve.PlacementResponse{Rounds: plan.Rounds, Makespan: plan.PredictedMakespan()}
	for j, t := range req.Tasks {
		out.Tasks = append(out.Tasks, serve.TaskPlacement{
			Name:         t.Name,
			DRAMAccesses: plan.DRAMAccesses[j],
			GoalRatio:    plan.GoalRatio[j],
			DRAMPages:    plan.DRAMPages[j],
			Predicted:    plan.Predicted[j],
		})
	}
	return responseDigest(&out), nil
}

// verifySingles checks every response planned alone against a reference
// plan of its request, on all CPUs. Each mismatching response counts as
// a failure.
func (c *checker) verifySingles(ctx context.Context, perf *model.PerfModel, gen *generator) {
	type job struct {
		digest [32]byte
		s      *singlePlan
	}
	work := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				want, err := referenceDigest(perf, c.capacity, gen.request(j.s.index).req)
				if err == nil && want != j.digest {
					err = errors.New("answer planned alone differs from MinMakespanPlan on the same request")
				}
				if err != nil {
					for k := 0; k < j.s.count; k++ {
						c.fail(fmt.Errorf("request %d: %w", j.s.index, err))
					}
				}
			}
		}()
	}
	for d, s := range c.single {
		if ctx.Err() != nil {
			break
		}
		work <- job{d, s}
	}
	close(work)
	wg.Wait()
}

// speedup is the makespan reduction over PM-only that an answer
// predicts for its own tasks.
func speedup(req *serve.PlacementRequest, out *serve.PlacementResponse) float64 {
	var pm, planned float64
	for i, t := range req.Tasks {
		pm = math.Max(pm, t.TPmOnly)
		planned = math.Max(planned, out.Tasks[i].Predicted)
	}
	return share(pm, planned)
}

// newClient is one closed-loop client pool's HTTP client: a kept-alive
// connection per client.
func newClient() *http.Client {
	clients := runtime.NumCPU()
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
		Timeout:   clientTimeout,
	}
}

// drive runs requests [first, first+n) of gen through url/place from a
// closed loop of one client per CPU: each client sends its next request
// only once the previous answer arrived, as an HPC runtime blocked at a
// synchronization point does. It returns each request's latency in ms;
// a failed request reads +Inf.
func drive(ctx context.Context, client *http.Client, url string, gen *generator, first, n int, chk *checker, tr *tracer) []float64 {
	lat := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					chk.fail(err)
					lat[k] = math.Inf(1)
					continue
				}
				lat[k] = call(ctx, client, url, gen, first+k, chk, tr)
			}
		}()
	}
	wg.Wait()
	return lat
}

func call(ctx context.Context, client *http.Client, url string, gen *generator, index int, chk *checker, tr *tracer) float64 {
	g := gen.request(index)
	body, err := json.Marshal(g.req)
	if err != nil {
		chk.fail(err)
		return math.Inf(1)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/place", bytes.NewReader(body))
	if err != nil {
		chk.fail(err)
		return math.Inf(1)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(gate.KeyHeader, g.key)
	if tr != nil {
		req.Header.Set(idHeader, strconv.Itoa(index))
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		chk.fail(fmt.Errorf("request %d: %w", index, err))
		return math.Inf(1)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if tr != nil {
		tr.clientSpan(index, g, start, end)
	}
	if err != nil {
		chk.fail(fmt.Errorf("request %d: reading answer: %w", index, err))
		return math.Inf(1)
	}
	if resp.StatusCode != http.StatusOK {
		chk.fail(fmt.Errorf("request %d: status %d: %s", index, resp.StatusCode, bytes.TrimSpace(data)))
		return math.Inf(1)
	}
	if !chk.check(index, g, data) {
		return math.Inf(1)
	}
	return float64(end.Sub(start).Nanoseconds()) / 1e6
}

// The serving workloads' fixed work is --seconds segments of this many
// requests each, about one second of load per segment on a 2-vCPU host
// when the benchmark was defined.
const (
	distinctPerSecond = 350
	zipfPerSecond     = 2000
)

// serveRun is one boot-measure-verify cycle of a serving workload.
type serveRun struct {
	setups   []float64
	model    *quickModel
	gen      *generator
	lat      []float64 // ms per kept timed request, +Inf when it failed
	kept     phase     // wall and CPU summed over the kept segments
	phase    phase     // the whole timed phase, every segment
	gating   gating
	sent     int // timed requests sent, kept or not
	heapMB   float64
	counters map[string]float64 // deltas over the timed phase
	chk      *checker
	perf     *model.PerfModel
}

// runServing sets the fleet up rounds times (keeping the last), drives the
// timed requests through it, and verifies the answers.
func runServing(ctx context.Context, o options, repeat bool, rounds int, tr *tracer) (*serveRun, error) {
	run := &serveRun{}
	var f *fleet
	for round := 0; round < rounds; round++ {
		start := o.setupStart(round)
		m, err := trainQuick(ctx, o.dir)
		if err != nil {
			return nil, err
		}
		if f, err = bootFleet(ctx, m, tr); err != nil {
			return nil, err
		}
		gen := newGenerator(o.seed, m.capacity, m.events, repeat)
		warm := newChecker(m, repeat)
		client := newClient()
		drive(ctx, client, f.url, gen, 0, warmupRequests, warm, nil)
		client.CloseIdleConnections()
		if warm.failed > 0 {
			f.close()
			return nil, fmt.Errorf("perfbench: warm-up: %d of %d requests failed, first: %v", warm.failed, warmupRequests, warm.firstErr)
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
		run.model, run.gen = m, gen
		if round < rounds-1 {
			f.close()
		}
	}
	defer f.close()

	perSegment := distinctPerSecond
	if repeat {
		perSegment = zipfPerSecond
	}
	run.chk = newChecker(run.model, repeat)
	client := newClient()
	defer client.CloseIdleConnections()
	before := f.counters()
	if tr != nil {
		tr.start()
	}
	var segments [][]float64
	var phases []phase
	u := readUsage()
	keep, g, err := gated(o.seconds, func(i int) (phase, error) {
		start := readUsage()
		segments = append(segments, drive(ctx, client, f.url, run.gen, warmupRequests+i*perSegment, perSegment, run.chk, tr))
		phases = append(phases, since(start))
		if i == o.seconds-1 {
			run.heapMB = liveHeapMB() // after the fixed work, however many segments follow
		}
		return phases[i], ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	run.phase, run.gating, run.sent = since(u), g, len(segments)*perSegment
	for _, i := range keep {
		run.lat = append(run.lat, segments[i]...)
		run.kept.wall += phases[i].wall
		run.kept.cpu += phases[i].cpu
	}
	after := f.counters()
	run.counters = map[string]float64{}
	for k, v := range after {
		run.counters[k] = v - before[k]
	}
	run.counters["serve.restore_seconds"] = after["serve.restore_seconds"]
	run.counters["serve.restores"] = after["serve.restores"]
	f.close()

	if run.perf, err = run.model.restorePerf(ctx); err != nil {
		return nil, err
	}
	run.chk.verifySingles(ctx, run.perf, run.gen)
	return run, ctx.Err()
}

// serveWorkload measures one serving traffic mix. The end-to-end
// metrics come from an untraced run; a traced run repeats it with every
// layer wrapped and reports the per-layer metrics.
func serveWorkload(repeat bool) func(context.Context, options) (*outcome, error) {
	return func(ctx context.Context, o options) (*outcome, error) {
		run, err := runServing(ctx, o, repeat, setupRounds, nil)
		if err != nil {
			return nil, err
		}
		out := servingOutcome(run)
		if !o.trace {
			return out, nil
		}
		tr := newTracer()
		o.started = time.Time{}
		traced, err := runServing(ctx, o, repeat, 1, tr)
		if err != nil {
			return nil, err
		}
		tracedOut := servingOutcome(traced)
		layers, err := tr.servingLayers(traced)
		if err != nil {
			return nil, err
		}
		layers["trace.overhead_p50_ms"] = tracedOut.values["p50_ms"] - out.values["p50_ms"]
		tracedOut.values = layers
		tracedOut.spans = tr.events()
		return tracedOut, nil
	}
}

func servingOutcome(run *serveRun) *outcome {
	lat := run.lat
	c := run.chk
	return &outcome{
		attempted: run.sent,
		failed:    c.failed,
		firstErr:  c.firstErr,
		steal:     run.phase.steal,
		gating:    map[string]gating{"requests": run.gating},
		values: map[string]float64{
			"setup_s":       median(run.setups),
			"p50_ms":        quantile(lat, 0.5),
			"p90_ms":        quantile(lat, 0.9),
			"rps":           share(float64(succeeded(lat)), run.kept.wall),
			"run_s":         run.kept.wall,
			"cpu_s":         run.kept.cpu,
			"heap_mb":       run.heapMB,
			"model_r2":      run.model.r2,
			"merch_speedup": share(c.speedupSum, float64(c.speedupSeen)),
		},
	}
}
