package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
	"merchandiser/internal/rcache"
	"merchandiser/internal/serve"
)

// maxBodyBytes bounds a proxied /place body, matching the replica limit.
const maxBodyBytes = 1 << 20

// KeyHeader names the routing key header. When absent, the gate falls
// back to the first task's name — per-app streams hash to the same
// replica either way.
const KeyHeader = "X-Merch-Key"

// CacheHeader marks responses the gate served from its response cache
// (or collapsed into an identical in-flight request) without touching a
// replica.
const CacheHeader = "X-Merch-Cache"

// Config tunes the gate.
type Config struct {
	// Backends are the replica base URLs (e.g. "http://127.0.0.1:8077").
	Backends []string
	// VNodes is the virtual-node count per replica on the hash ring.
	// Default 128.
	VNodes int
	// Retries bounds how many additional ring nodes a failed request may
	// hop to. Default 2.
	Retries int
	// HealthInterval is the /readyz probe period. Default 250ms.
	HealthInterval time.Duration
	// EjectAfter is how many consecutive probe/proxy failures eject a
	// replica from routing. Default 2.
	EjectAfter int
	// ReadmitAfter is how many consecutive probe successes re-admit an
	// ejected replica. Default 2.
	ReadmitAfter int
	// Timeout caps one proxied request. Default 15s.
	Timeout time.Duration
	// CacheEntries bounds the gate's response cache: serialized upstream
	// 200 bodies keyed on (fleet-converged model SHA, order-sensitive
	// request hash), served without touching any replica. Caching engages
	// only while every healthy replica reports the same non-empty SHA. 0
	// (the default) disables the cache and leaves the gate byte-identical
	// to a build without it.
	CacheEntries int
	// Obs, when non-nil, receives gate metrics; it is what /metricsz
	// serves.
	Obs *obs.Registry
	// Client overrides the proxy HTTP client (tests); nil builds one with
	// Timeout.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 15 * time.Second
	}
	return c
}

// backend is one replica's routing state, maintained by its prober and
// consulted (plus passively updated) by the proxy path.
type backend struct {
	url string

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures (probe or proxy connection)
	oks     int // consecutive probe successes while ejected
	version string
	sha256  string
	lastErr string
}

// BackendStatus is one /fleetz row.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Version string `json:"version,omitempty"`
	SHA256  string `json:"sha256,omitempty"`
	LastErr string `json:"last_error,omitempty"`
}

// FleetResponse is the /fleetz body: the replica rows, plus the
// response cache's counters when the cache is enabled.
type FleetResponse struct {
	Backends []BackendStatus `json:"backends"`
	Cache    *FleetCache     `json:"cache,omitempty"`
}

// FleetCache is the /fleetz cache block.
type FleetCache struct {
	rcache.Stats
	Collapsed    uint64  `json:"collapsed"`
	HitRate      float64 `json:"hit_rate"`
	ConvergedSHA string  `json:"converged_sha,omitempty"`
}

// Gate routes placement requests across a replica set. Create with New,
// stop the probers with Close.
type Gate struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	client   *http.Client

	// cache/flight/hashers exist only when Config.CacheEntries > 0.
	cache   *rcache.Cache
	flight  *rcache.Group
	hashers sync.Pool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds the gate and starts one health prober per replica.
func New(cfg Config) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{
		cfg:    cfg,
		ring:   NewRing(cfg.Backends, cfg.VNodes),
		client: cfg.Client,
		stop:   make(chan struct{}),
	}
	if g.client == nil {
		g.client = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.CacheEntries > 0 {
		g.cache = rcache.New(rcache.Config{Entries: cfg.CacheEntries, Obs: cfg.Obs, Metric: "gate.cache_"})
		g.flight = &rcache.Group{}
		g.hashers.New = func() any { return rcache.NewHasher() }
	}
	for _, u := range cfg.Backends {
		b := &backend{url: strings.TrimRight(u, "/")}
		g.backends = append(g.backends, b)
		g.wg.Add(1)
		go g.probe(b)
	}
	return g
}

// Close stops the health probers.
func (g *Gate) Close() {
	close(g.stop)
	g.wg.Wait()
}

// probe polls one replica's /readyz: consecutive failures eject it from
// routing, consecutive successes re-admit it, and the readiness body's
// version/sha keep the fleet view current.
func (g *Gate) probe(b *backend) {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	g.probeOnce(b) // first verdict immediately, not one interval late
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.probeOnce(b)
		}
	}
}

func (g *Gate) probeOnce(b *backend) {
	resp, err := g.client.Get(b.url + "/readyz")
	if err != nil {
		g.cfg.Obs.Counter("gate.probe_errors").Inc()
		b.noteFailure(g.cfg.EjectAfter, err.Error())
		return
	}
	var ready serve.ReadyResponse
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil || !ready.Ready {
		g.cfg.Obs.Counter("gate.probe_not_ready").Inc()
		b.noteFailure(g.cfg.EjectAfter, "not ready")
		return
	}
	b.noteSuccess(g.cfg.ReadmitAfter, ready.Version, ready.SHA256)
}

func (b *backend) noteFailure(ejectAfter int, msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.oks = 0
	b.fails++
	b.lastErr = msg
	if b.fails >= ejectAfter {
		b.healthy = false
	}
}

func (b *backend) noteSuccess(readmitAfter int, version, sha string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.lastErr = ""
	b.version, b.sha256 = version, sha
	if b.healthy {
		return
	}
	b.oks++
	if b.oks >= readmitAfter {
		b.healthy = true
		b.oks = 0
	}
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

func (b *backend) status() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{URL: b.url, Healthy: b.healthy, Version: b.version, SHA256: b.sha256, LastErr: b.lastErr}
}

// Ready reports whether at least one replica is routable.
func (g *Gate) Ready() bool {
	for _, b := range g.backends {
		if b.isHealthy() {
			return true
		}
	}
	return false
}

// Fleet returns every replica's status, sorted by URL.
func (g *Gate) Fleet() []BackendStatus {
	out := make([]BackendStatus, 0, len(g.backends))
	for _, b := range g.backends {
		out = append(out, b.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// routeKey extracts the consistent-hash key: the KeyHeader if set, else
// the first task's name from the (already-read) body.
func routeKey(r *http.Request, body []byte) string {
	if k := r.Header.Get(KeyHeader); k != "" {
		return k
	}
	var req struct {
		Tasks []struct {
			Name string `json:"name"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(body, &req); err == nil && len(req.Tasks) > 0 {
		return req.Tasks[0].Name
	}
	return ""
}

// isConnError classifies failures that justify hopping to the next ring
// node: the request never reached a replica (or the replica vanished
// mid-request), so retrying elsewhere cannot double-apply anything —
// /place is a pure computation anyway.
func isConnError(err error) bool {
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// upstreamResult is one routed request's outcome in writable form: the
// status, body and headers handlePlace (or a cache hit replaying it)
// sends to the client.
type upstreamResult struct {
	status     int
	ctype      string
	body       []byte
	retryAfter string // upstream Retry-After, if any; bounded on write
	nosniff    bool   // gate-generated plain-text error (http.Error parity)
}

// textResult is a gate-generated error in upstreamResult form,
// byte-compatible with what http.Error used to produce.
func textResult(status int, msg string) *upstreamResult {
	return &upstreamResult{
		status:  status,
		ctype:   "text/plain; charset=utf-8",
		body:    []byte(msg + "\n"),
		nosniff: true,
	}
}

// writeUpstream sends a result to the client, preserving the upstream
// Content-Type (including on replayed error bodies) and attaching a
// bounded Retry-After hint to 429/503 answers so well-behaved clients
// back off instead of hammering a draining fleet.
func writeUpstream(w http.ResponseWriter, res *upstreamResult) {
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	if res.nosniff {
		w.Header().Set("X-Content-Type-Options", "nosniff")
	}
	if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", boundedRetryAfter(res.retryAfter))
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// boundedRetryAfter clamps an upstream Retry-After (seconds form) into
// [1, 30]; anything absent or unparseable becomes the 1-second floor.
func boundedRetryAfter(upstream string) string {
	secs, err := strconv.Atoi(strings.TrimSpace(upstream))
	if err != nil || secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// forward routes one placement request: primary replica by key, then
// bounded retries along the ring on connection failure or a 503 (a
// draining replica answers 503; its key space should fail over). It
// returns nil only when the client's context died — there is nothing
// left to answer.
func (g *Gate) forward(r *http.Request, body []byte, key string) *upstreamResult {
	seq := g.ring.Sequence(key, 1+g.cfg.Retries)
	// Healthy replicas first, in ring-preference order; ejected ones only
	// as a last resort (the prober may simply not have re-admitted yet).
	ordered := make([]*backend, 0, len(seq))
	for _, i := range seq {
		if g.backends[i].isHealthy() {
			ordered = append(ordered, g.backends[i])
		}
	}
	for _, i := range seq {
		if !g.backends[i].isHealthy() {
			ordered = append(ordered, g.backends[i])
		}
	}
	if len(ordered) == 0 {
		g.cfg.Obs.Counter("gate.rejected_no_backend").Inc()
		return textResult(http.StatusServiceUnavailable, "gate: no routable replica")
	}

	var last *upstreamResult
	for hop, b := range ordered {
		if hop > 0 {
			g.cfg.Obs.Counter("gate.retries").Inc()
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, b.url+"/place", bytes.NewReader(body))
		if err != nil {
			return textResult(http.StatusInternalServerError, err.Error())
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return nil // client gave up; nothing to answer
			}
			b.noteFailure(g.cfg.EjectAfter, err.Error())
			if isConnError(err) {
				continue
			}
			return textResult(http.StatusBadGateway, "gate: "+err.Error())
		}
		respBody, readErr := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if readErr != nil {
			b.noteFailure(g.cfg.EjectAfter, readErr.Error())
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or not-yet-loaded replica: its share fails over.
			last = &upstreamResult{
				status:     resp.StatusCode,
				ctype:      resp.Header.Get("Content-Type"),
				body:       respBody,
				retryAfter: resp.Header.Get("Retry-After"),
			}
			continue
		}
		g.cfg.Obs.Counter("gate.proxied").Inc()
		return &upstreamResult{
			status:     resp.StatusCode,
			ctype:      resp.Header.Get("Content-Type"),
			body:       respBody,
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	g.cfg.Obs.Counter("gate.exhausted").Inc()
	if last != nil {
		return last
	}
	return textResult(http.StatusBadGateway, "gate: every candidate replica failed")
}

// convergedSHA returns the model SHA the whole routable fleet serves,
// or "" while replicas disagree (mid-promotion), report no SHA, or none
// is healthy. Caching on a converged SHA means a response body cached
// now is exact for any replica the ring could have picked.
func (g *Gate) convergedSHA() string {
	sha := ""
	for _, b := range g.backends {
		b.mu.Lock()
		healthy, s := b.healthy, b.sha256
		b.mu.Unlock()
		if !healthy {
			continue
		}
		if s == "" || (sha != "" && s != sha) {
			return ""
		}
		sha = s
	}
	return sha
}

// cacheKey parses and canonically hashes a request body. ok is false
// when the body is not a cacheable placement request (malformed JSON,
// no tasks, oversized) — those flow straight to a replica for its
// verdict.
func (g *Gate) cacheKey(modelSHA string, body []byte) (rcache.Key, bool) {
	var req serve.PlacementRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Tasks) == 0 || len(req.Tasks) > 1<<12 {
		return rcache.Key{}, false
	}
	h := g.hashers.Get().(*rcache.Hasher)
	digest, perm := h.Hash(&req)
	ordered := h.OrderedDigest(digest, perm)
	g.hashers.Put(h)
	return rcache.Key{Model: modelSHA, Request: ordered}, true
}

// handlePlace answers one client /place: response cache first (when
// configured and the fleet is converged), then singleflight-collapsed
// forwarding along the ring.
func (g *Gate) handlePlace(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := routeKey(r, body)
	g.cfg.Obs.Counter("gate.requests").Inc()

	if g.cache != nil {
		if sha := g.convergedSHA(); sha != "" {
			if ckey, ok := g.cacheKey(sha, body); ok {
				g.placeCached(w, r, body, key, ckey)
				return
			}
		} else {
			g.cfg.Obs.Counter("gate.cache_unconverged").Inc()
		}
	}
	if res := g.forward(r, body, key); res != nil {
		writeUpstream(w, res)
	}
}

// placeCached serves from the gate cache, collapsing concurrent
// identical misses into one upstream request. Only 200 bodies whose
// stamped model SHA matches the converged SHA are stored: a response
// that raced a promotion is answered but never cached.
func (g *Gate) placeCached(w http.ResponseWriter, r *http.Request, body []byte, key string, ckey rcache.Key) {
	if v, ok := g.cache.Get(ckey); ok {
		w.Header().Set(CacheHeader, "hit")
		writeUpstream(w, v.(*upstreamResult))
		return
	}
	v, shared, err := g.flight.Do(r.Context(), ckey, func() (any, error) {
		res := g.forward(r, body, key)
		if res == nil {
			return nil, merr.Canceled("gate: leader canceled", r.Context().Err())
		}
		if res.status == http.StatusOK && upstreamModelSHA(res.body) == ckey.Model {
			g.cache.Put(ckey, res)
		}
		return res, nil
	})
	if shared {
		g.cfg.Obs.Counter("gate.cache_collapsed").Inc()
	}
	if err != nil {
		// The leader's client (or ours) gave up. If we are still live,
		// the request deserves its own trip upstream.
		if r.Context().Err() != nil {
			return
		}
		if res := g.forward(r, body, key); res != nil {
			writeUpstream(w, res)
		}
		return
	}
	res := v.(*upstreamResult)
	if shared {
		w.Header().Set(CacheHeader, "hit")
	}
	writeUpstream(w, res)
}

// upstreamModelSHA lifts model_sha256 from a replica's response body.
func upstreamModelSHA(body []byte) string {
	var out struct {
		ModelSHA256 string `json:"model_sha256"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return ""
	}
	return out.ModelSHA256
}

// CacheStats reports the gate cache's counters (zero when off) and the
// singleflight collapse count.
func (g *Gate) CacheStats() (rcache.Stats, uint64) {
	return g.cache.Stats(), g.flight.Collapsed()
}

// Handler exposes the gate over HTTP:
//
//	GET  /healthz  — liveness
//	GET  /readyz   — 200 while at least one replica is routable
//	GET  /metricsz — the gate's obs registry snapshot
//	GET  /fleetz   — per-replica health + serving model version/sha
//	POST /place    — proxied placement request (consistent-hash routed)
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !g.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("no routable replica\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if g.cfg.Obs == nil {
			w.Write([]byte("{}\n"))
			return
		}
		g.cfg.Obs.Snapshot(true).WriteJSON(w)
	})
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fleet := FleetResponse{Backends: g.Fleet()}
		if g.cache != nil {
			stats, collapsed := g.CacheStats()
			fleet.Cache = &FleetCache{
				Stats:        stats,
				Collapsed:    collapsed,
				HitRate:      stats.HitRate(),
				ConvergedSHA: g.convergedSHA(),
			}
		}
		json.NewEncoder(w).Encode(fleet)
	})
	mux.HandleFunc("/place", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a placement request", http.StatusMethodNotAllowed)
			return
		}
		g.handlePlace(w, r)
	})
	return mux
}
