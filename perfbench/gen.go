package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/serve"
)

// paperApps are the five applications of the paper's Table 2 with their
// task counts. A generated request is one synchronization point of one
// instance of these applications.
var paperApps = []struct {
	Name  string
	Tasks int
}{
	{"SpGEMM", 12}, {"WarpX", 24}, {"BFS", 12}, {"DMRG", 6}, {"NWChem-TC", 24},
}

const (
	// jobs is the number of application instances that send requests.
	// Each is one routing key; in serve-zipf each also owns one fixed
	// request shape.
	jobs = 512
	// zipfS is serve-zipf's popularity skew over the jobs' shapes.
	zipfS = 1.1
	// Table 2's applications use 1.6x to 6.6x the DRAM capacity; each
	// request's summed footprint oversubscribes DRAM by a factor drawn
	// from this range.
	minOversub, maxOversub = 1.6, 6.6
)

// Stream domains keep the random draws of different purposes apart, so
// changing one kind of draw never shifts another.
const (
	domainDistinct = 1 + iota
	domainShape
	domainPick
)

// eventRange bounds each selected PMC event to the range seen in the
// model's training matrix, so generated events exercise the trees the
// model actually grew.
type eventRange struct {
	names  []string
	lo, hi []float64
}

// rangeFromStats lifts the selected events' training range from a
// model's feature statistics (names, minima and maxima per column).
func rangeFromStats(names []string, lo, hi []float64) (eventRange, error) {
	r := eventRange{names: pmc.SelectedEvents}
	for _, ev := range pmc.SelectedEvents {
		j := slices.Index(names, ev)
		if j < 0 || j >= len(lo) || j >= len(hi) {
			return eventRange{}, fmt.Errorf("perfbench: model statistics lack event %q", ev)
		}
		r.lo = append(r.lo, lo[j])
		r.hi = append(r.hi, hi[j])
	}
	return r, nil
}

// generator derives a request stream from a seed alone. Requests are made
// on demand from their index, so nothing of the stream is retained and
// the same (seed, index) always yields the same request.
type generator struct {
	seed     uint64
	capacity uint64 // DRAM pages the requests oversubscribe
	events   eventRange
	// zipf is the popularity CDF over the jobs' fixed shapes; nil makes
	// every request a new task set.
	zipf []float64
}

func newGenerator(seed int64, capacity uint64, events eventRange, repeat bool) *generator {
	g := &generator{seed: uint64(seed), capacity: capacity, events: events}
	if repeat {
		g.zipf = zipfCDF(jobs, zipfS)
	}
	return g
}

// zipfCDF is the cumulative popularity of n ranks under Zipf(s).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// genRequest is one generated request: the routing key of the job that
// sent it, its shape (requests with equal shapes are identical) and the
// request itself.
type genRequest struct {
	key   string
	shape int
	req   *serve.PlacementRequest
}

// request returns request i of the stream.
func (g *generator) request(i int) genRequest {
	if g.zipf == nil {
		job := i % jobs
		r := newRNG(g.seed, domainDistinct, uint64(i))
		return genRequest{key: jobKey(job), shape: i, req: g.tasks(r, job, fmt.Sprintf("r%07d/", i))}
	}
	pick := newRNG(g.seed, domainPick, uint64(i))
	job := sort.SearchFloat64s(g.zipf, pick.float())
	if job >= jobs {
		job = jobs - 1
	}
	r := newRNG(g.seed, domainShape, uint64(job))
	return genRequest{key: jobKey(job), shape: job, req: g.tasks(r, job, "")}
}

func jobKey(job int) string {
	return fmt.Sprintf("%s-%03d", paperApps[job%len(paperApps)].Name, job)
}

// tasks draws one synchronization point of job's application: the
// paper's task count, a summed footprint that oversubscribes DRAM by a
// Table 2 factor, imbalanced per-task work, and events within the
// training range.
func (g *generator) tasks(r rng, job int, tag string) *serve.PlacementRequest {
	app := paperApps[job%len(paperApps)]
	total := r.uniform(minOversub, maxOversub) * float64(g.capacity)
	weights := make([]float64, app.Tasks)
	sum := 0.0
	for t := range weights {
		weights[t] = r.uniform(0.5, 1.5)
		sum += weights[t]
	}
	req := &serve.PlacementRequest{Tasks: make([]serve.TaskRequest, app.Tasks)}
	for t := range req.Tasks {
		pages := uint64(total*weights[t]/sum) + 1
		tPm := r.uniform(2, 8)
		events := make(map[string]float64, len(g.events.names))
		for k, name := range g.events.names {
			events[name] = r.uniform(g.events.lo[k], g.events.hi[k])
		}
		req.Tasks[t] = serve.TaskRequest{
			Name:           fmt.Sprintf("%s/%st%02d", jobKey(job), tag, t),
			TPmOnly:        tPm,
			TDramOnly:      tPm * r.uniform(0.3, 0.8),
			Events:         events,
			TotalAccesses:  float64(pages) * r.uniform(32, 256),
			FootprintPages: pages,
		}
	}
	return req
}

// taskInputs converts a request the way the service does before
// planning, so a plan computed here is the service's plan.
func taskInputs(req *serve.PlacementRequest) []placement.TaskInput {
	out := make([]placement.TaskInput, len(req.Tasks))
	for i, t := range req.Tasks {
		values := make(map[string]float64, len(t.Events))
		for k, v := range t.Events {
			values[k] = v
		}
		out[i] = placement.TaskInput{
			Name:           t.Name,
			TPmOnly:        t.TPmOnly,
			TDramOnly:      t.TDramOnly,
			Events:         pmc.Counters{Task: t.Name, Values: values},
			TotalAccesses:  t.TotalAccesses,
			FootprintPages: t.FootprintPages,
		}
	}
	return out
}

// rng is a splitmix64 stream: cheap to create per request, and fully
// determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed, domain, index uint64) rng {
	r := rng{s: seed*0x9e3779b97f4a7c15 ^ (domain<<48|index)*0xd1342543de82ef95}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }
