package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/rcache"
	"merchandiser/internal/store"
)

// idHeader carries the benchmark's request index from the client to the
// gate, and from the gate's upstream transport to a replica.
const idHeader = "X-Perfbench-Request"

type idKey struct{}

// Span kinds, one per layer boundary the tracer wraps.
const (
	spanClient   = iota // the client's /place call
	spanGate            // Gate.Handler
	spanUpstream        // the gate's hop to a replica, through its transport
	spanReplica         // Service.Handler
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"client", "gate", "gate.upstream", "serve.handler"}

type span struct {
	start, end time.Time
	replica    int
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// planEvent is one batch the service planned, as its PlanLog saw it.
type planEvent struct {
	replica int
	at      time.Time
	rec     *store.PlanRecord
}

// tracer records spans from wrappers in this package around the calls
// into each layer, keeps them in memory, and joins them after the timed
// phase. Only the timed phase is recorded.
type tracer struct {
	on     atomic.Bool
	origin time.Time

	mu    sync.Mutex
	spans [numSpanKinds]map[int]span // request index → span
	plans []planEvent
	// firstTask maps a request's first task name to its index, which
	// joins plan records (named by task) to requests.
	firstTask map[string]int
	// decisions are paper-eval's Algorithm 1 calls.
	decisions []span
}

func newTracer() *tracer {
	t := &tracer{firstTask: map[string]int{}}
	for k := range t.spans {
		t.spans[k] = map[int]span{}
	}
	return t
}

func (t *tracer) start() {
	t.origin = time.Now()
	t.on.Store(true)
}

func (t *tracer) record(kind, id int, s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.spans[kind][id]; ok && kind == spanUpstream {
		s.start = prev.start // a retried hop: the span covers every attempt
	}
	t.spans[kind][id] = s
}

func (t *tracer) clientSpan(index int, g genRequest, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.record(spanClient, index, span{start: start, end: end})
	t.mu.Lock()
	t.firstTask[g.req.Tasks[0].Name] = index
	t.mu.Unlock()
}

func requestID(r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.Header.Get(idHeader))
	return id, err == nil
}

// wrapGate times Gate.Handler and puts the request index on the context,
// where the upstream transport finds it.
func (t *tracer) wrapGate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := requestID(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		t.record(spanGate, id, span{start: start, end: time.Now()})
	})
}

// wrapReplica times one replica's Service.Handler.
func (t *tracer) wrapReplica(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := requestID(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(spanReplica, id, span{start: start, end: time.Now(), replica: replica})
	})
}

// planLog is a replica's serve.Config.PlanLog: it notes when each batch
// finished planning and which tasks it held.
func (t *tracer) planLog(replica int) func(*store.PlanRecord) {
	return func(rec *store.PlanRecord) {
		if !t.on.Load() {
			return
		}
		at := time.Now()
		t.mu.Lock()
		t.plans = append(t.plans, planEvent{replica: replica, at: at, rec: rec})
		t.mu.Unlock()
	}
}

// upstreamClient is the gate's proxy client (gate.Config.Client) with a
// transport that forwards the request index and times each hop until
// the gate closes the answer's body.
func (t *tracer) upstreamClient() *http.Client {
	return &http.Client{Timeout: 15 * time.Second, Transport: &spanTransport{t: t, base: http.DefaultTransport}}
}

type spanTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (s *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(idKey{}).(int)
	if !ok {
		return s.base.RoundTrip(r) // health probes
	}
	r = r.Clone(r.Context())
	r.Header.Set(idHeader, strconv.Itoa(id))
	start := time.Now()
	resp, err := s.base.RoundTrip(r)
	if err != nil {
		s.t.record(spanUpstream, id, span{start: start, end: time.Now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.t.record(spanUpstream, id, span{start: start, end: time.Now()})
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// servingLayers joins the spans of a traced serving run and replays its
// batches and requests through the layers the fleet called, returning
// every per-layer metric the serving workloads define.
func (t *tracer) servingLayers(run *serveRun) (map[string]float64, error) {
	var clientSelf, gateSelf, upstream []float64
	for id, c := range t.spans[spanClient] {
		g, ok := t.spans[spanGate][id]
		if !ok {
			continue
		}
		clientSelf = append(clientSelf, micros(c.dur()-g.dur()))
		if up, ok := t.spans[spanUpstream][id]; ok {
			gateSelf = append(gateSelf, micros(g.dur()-up.dur()))
			upstream = append(upstream, micros(up.dur()))
		} else {
			gateSelf = append(gateSelf, micros(g.dur()))
		}
	}

	// Replay each logged batch through MinMakespanPlan: its duration is
	// the batch's plan time, and its plan must be the one served.
	planTime := make([]time.Duration, len(t.plans))
	byTask := map[string][]int{}
	var planUS, tasksPer []float64
	var sample []placement.TaskInput
	for e, ev := range t.plans {
		tasks, err := t.batchInputs(run.gen, ev.rec.Tasks)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		plan, err := placement.MinMakespanPlan(tasks, run.model.capacity, run.perf, planTol)
		planTime[e] = time.Since(start)
		if err != nil {
			return nil, err
		}
		if !samePlan(plan, ev.rec) {
			run.chk.fail(fmt.Errorf("batch of %d tasks starting %q: served plan differs from MinMakespanPlan on the batch", len(tasks), ev.rec.Tasks[0]))
		}
		planUS = append(planUS, micros(planTime[e]))
		tasksPer = append(tasksPer, float64(len(tasks)))
		if len(sample) < 4096 {
			sample = append(sample, tasks...)
		}
		for _, name := range ev.rec.Tasks {
			byTask[name] = append(byTask[name], e)
		}
	}

	var handler, serveSelf, wait, respond []float64
	for id, r := range t.spans[spanReplica] {
		handler = append(handler, micros(r.dur()))
		e := t.joinPlan(byTask, run.gen.request(id).req.Tasks[0].Name, r)
		if e < 0 {
			serveSelf = append(serveSelf, micros(r.dur())) // answered from the replica cache
			continue
		}
		ev := t.plans[e]
		wait = append(wait, micros(ev.at.Sub(r.start)-planTime[e]))
		respond = append(respond, micros(r.end.Sub(ev.at)))
		serveSelf = append(serveSelf, micros(r.dur()-planTime[e]))
	}

	c := run.counters
	layers := map[string]float64{
		"client.self_p50_us":       median(clientSelf),
		"gate.self_p50_us":         median(gateSelf),
		"gate.upstream_p50_us":     median(upstream),
		"gate.cache_hit_share":     share(c["gate.cache_hits"], c["gate.cache_hits"]+c["gate.cache_misses"]),
		"gate.cache_collapsed":     c["gate.cache_collapsed"],
		"gate.proxied":             c["gate.proxied"],
		"gate.retries":             c["gate.retries"],
		"serve.handler_p50_us":     quantile(handler, 0.5),
		"serve.handler_p90_us":     quantile(handler, 0.9),
		"serve.self_p50_us":        median(serveSelf),
		"serve.wait_p50_us":        median(wait),
		"serve.respond_p50_us":     median(respond),
		"serve.batches":            c["serve.batches"],
		"serve.batch_size_mean":    share(c["serve.batch_size.sum"], c["serve.batch_size.count"]),
		"serve.mixed_share":        share(float64(run.chk.mixed), float64(run.chk.responses)),
		"serve.cache_hit_share":    share(c["serve.cache_hits"], c["serve.cache_hits"]+c["serve.cache_misses"]),
		"serve.rejected":           c["serve.rejected_queue_full"] + c["serve.rejected_draining"] + c["serve.rejected_not_ready"] + c["serve.rejected_invalid"],
		"placement.plan_p50_us":    median(planUS),
		"placement.tasks_per_plan": mean(tasksPer),
		"ml.predictions_per_op":    share(c["ml.gbr.predictions"], c["serve.batches"]),
		"store.restore_ms":         1e3 * share(c["serve.restore_seconds"], c["serve.restores"]),
		"store.artifact_kb":        float64(len(run.model.data)) / 1024,
		"train.quick_s":            run.model.trainS,
		"corpus.samples":           float64(run.model.samples),
	}
	predictLayers(layers, run.perf, sample)
	t.cacheLayers(layers, run)
	return layers, nil
}

// batchInputs rebuilds a logged batch's planner inputs from its task
// names: each request's first task name finds the request, which the
// generator rebuilds.
func (t *tracer) batchInputs(gen *generator, names []string) ([]placement.TaskInput, error) {
	var tasks []placement.TaskInput
	for j := 0; j < len(names); {
		idx, ok := t.firstTask[names[j]]
		if !ok {
			return nil, fmt.Errorf("perfbench: planned task %q starts no traced request", names[j])
		}
		req := gen.request(idx).req
		for k, task := range req.Tasks {
			if j+k >= len(names) || names[j+k] != task.Name {
				return nil, fmt.Errorf("perfbench: batch tasks do not match request %d", idx)
			}
		}
		tasks = append(tasks, taskInputs(req)...)
		j += len(req.Tasks)
	}
	return tasks, nil
}

// samePlan compares a replayed plan with a logged one, bit for bit.
func samePlan(p *placement.Plan, rec *store.PlanRecord) bool {
	if p.Rounds != rec.Rounds || len(p.DRAMPages) != len(rec.DRAMPages) {
		return false
	}
	for i := range p.DRAMPages {
		if p.DRAMPages[i] != rec.DRAMPages[i] || p.GoalRatio[i] != rec.GoalRatio[i] ||
			p.DRAMAccesses[i] != rec.DRAMAccesses[i] || p.Predicted[i] != rec.Predicted[i] {
			return false
		}
	}
	return true
}

// joinPlan finds the batch that planned the request whose first task is
// name and whose replica span is r: same replica, logged inside the span.
func (t *tracer) joinPlan(byTask map[string][]int, name string, r span) int {
	for _, e := range byTask[name] {
		ev := t.plans[e]
		if ev.replica == r.replica && !ev.at.Before(r.start) && !ev.at.After(r.end) {
			return e
		}
	}
	return -1
}

// predictLayers times the model layer on the inputs the batches held:
// single predictions at spread DRAM ratios and 1000-row batches.
func predictLayers(layers map[string]float64, perf *model.PerfModel, sample []placement.TaskInput) {
	if len(sample) == 0 {
		return
	}
	var sink float64
	single := make([]float64, 0, len(sample))
	for i, task := range sample {
		r := float64(i%21) / 20
		start := time.Now()
		sink += perf.Predict(task.TPmOnly, task.TDramOnly, task.Events, r)
		single = append(single, float64(time.Since(start).Nanoseconds()))
	}
	const rows = 1000
	tPm, tDram, ratios := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	evs := make([]pmc.Counters, rows)
	for i := 0; i < rows; i++ {
		task := sample[i%len(sample)]
		tPm[i], tDram[i], evs[i], ratios[i] = task.TPmOnly, task.TDramOnly, task.Events, float64(i%21)/20
	}
	var batch []float64
	for rep := 0; rep < 21; rep++ {
		start := time.Now()
		sink += perf.PredictBatch(tPm, tDram, evs, ratios)[0]
		batch = append(batch, micros(time.Since(start)))
	}
	layers["ml.predict_p50_ns"] = median(single)
	layers["ml.predict_batch_1k_us"] = median(batch)
	predictSink = sink
}

// predictSink keeps the timed predictions observable to the compiler.
var predictSink float64

// cacheLayers times the response cache's canonical hash and its LRU
// lookup on the traced requests.
func (t *tracer) cacheLayers(layers map[string]float64, run *serveRun) {
	ids := make([]int, 0, len(t.spans[spanClient]))
	for id := range t.spans[spanClient] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > replicaCache {
		ids = ids[:replicaCache]
	}
	h := rcache.NewHasher()
	cache := rcache.New(rcache.Config{Entries: replicaCache})
	keys := make([]rcache.Key, 0, len(ids))
	var hash []float64
	for _, id := range ids {
		req := run.gen.request(id).req
		start := time.Now()
		digest, _ := h.Hash(req)
		hash = append(hash, micros(time.Since(start)))
		key := rcache.Key{Model: run.model.sha, Request: digest}
		cache.Put(key, req)
		keys = append(keys, key)
	}
	var get []float64
	for pass := 0; pass < 4; pass++ {
		for _, k := range keys {
			start := time.Now()
			cache.Get(k)
			get = append(get, float64(time.Since(start).Nanoseconds()))
		}
	}
	layers["rcache.hash_p50_us"] = median(hash)
	layers["rcache.get_p50_ns"] = median(get)
}

// events renders the recorded spans as chrome-trace events: one lane per
// request, plan completions and paper-eval decisions as their own lanes.
func (t *tracer) events() []obs.Event {
	ts := func(at time.Time) float64 { return micros(at.Sub(t.origin)) }
	var out []obs.Event
	for kind, spans := range t.spans {
		for id, s := range spans {
			ev := obs.Event{Name: spanNames[kind], Ts: ts(s.start), Dur: micros(s.dur()), Pid: 1, Tid: id}
			if kind == spanReplica {
				ev.Args = map[string]any{"replica": s.replica}
			}
			out = append(out, ev)
		}
	}
	for _, p := range t.plans {
		out = append(out, obs.Event{Name: "serve.plan_logged", Ph: "i", Ts: ts(p.at), Pid: 2, Tid: p.replica,
			Args: map[string]any{"tasks": len(p.rec.Tasks), "first_task": p.rec.Tasks[0]}})
	}
	for i, d := range t.decisions {
		out = append(out, obs.Event{Name: "placement.decision", Ts: ts(d.start), Dur: micros(d.dur()), Pid: 3, Args: map[string]any{"decision": i}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return share(s, float64(len(v)))
}
