package rcache

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"merchandiser/internal/obs"
)

// Key identifies one cached placement response: the serving model
// artifact's SHA-256 (hex) and the request's Digest. A model
// promotion changes Model on every new key, so old entries become
// unreachable without an explicit invalidation; a rollback restores the
// old Model and the surviving entries are exact again — the cached plan
// was computed by byte-identical model bytes.
type Key struct {
	Model   string
	Request Digest
}

// Config tunes a Cache.
type Config struct {
	// Entries bounds the total entry count across all shards. <= 0
	// disables the cache (New returns nil, and a nil *Cache is a safe
	// always-miss no-op).
	Entries int
	// Shards is rounded up to a power of two; 0 defaults to 16. Each
	// shard holds ceil(Entries/Shards) entries behind its own mutex.
	Shards int
	// Obs, when non-nil, receives the cache's counters and entry gauge
	// under Metric-prefixed names (e.g. "serve.cache_hits").
	Obs *obs.Registry
	// Metric is the obs name prefix, e.g. "serve.cache_" or
	// "gate.cache_".
	Metric string
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type centry struct {
	key Key
	val any
}

type cshard struct {
	mu    sync.Mutex
	cap   int
	items map[Key]*list.Element
	order *list.List // front = most recently used
}

// Cache is a sharded, bounded LRU. All methods are safe for concurrent
// use and safe on a nil receiver (always miss, drop every put) — the
// "cache off" configuration needs no branches at call sites.
type Cache struct {
	shards []cshard
	mask   uint64

	hits, misses, evictions atomic.Uint64
	entries                 atomic.Int64

	obsHits, obsMisses, obsEvictions *obs.Counter
	obsEntries                       *obs.Gauge
}

// New builds a cache from cfg, or returns nil when cfg.Entries <= 0.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		return nil
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (cfg.Entries + n - 1) / n
	c := &Cache{shards: make([]cshard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cshard{cap: perShard, items: make(map[Key]*list.Element), order: list.New()}
	}
	if cfg.Obs != nil {
		c.obsHits = cfg.Obs.Counter(cfg.Metric + "hits")
		c.obsMisses = cfg.Obs.Counter(cfg.Metric + "misses")
		c.obsEvictions = cfg.Obs.Counter(cfg.Metric + "evictions")
		c.obsEntries = cfg.Obs.Gauge(cfg.Metric + "entries")
	}
	return c
}

// shard picks by the low digest bits: SHA-256 output is uniform, so the
// model string need not participate.
func (c *Cache) shard(k Key) *cshard {
	return &c.shards[binary.LittleEndian.Uint64(k.Request[:8])&c.mask]
}

// Get returns the cached value and refreshes its recency.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(k)
	var v any
	sh.mu.Lock()
	el, ok := sh.items[k]
	if ok {
		sh.order.MoveToFront(el)
		// Read under the lock: Put refreshes val in place.
		v = el.Value.(*centry).val
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		c.obsMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.obsHits.Inc()
	return v, true
}

// Put installs (or refreshes) k → v, evicting the shard's LRU entry
// when the shard is full.
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	evicted := false
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		el.Value.(*centry).val = v
		sh.order.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.items[k] = sh.order.PushFront(&centry{key: k, val: v})
	if sh.order.Len() > sh.cap {
		back := sh.order.Back()
		sh.order.Remove(back)
		delete(sh.items, back.Value.(*centry).key)
		evicted = true
	}
	sh.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		c.obsEvictions.Inc()
	} else {
		c.entries.Add(1)
	}
	if c.obsEntries != nil {
		c.obsEntries.Set(float64(c.entries.Load()))
	}
}

// Len returns the live entry count across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	capacity := 0
	for i := range c.shards {
		capacity += c.shards[i].cap
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  capacity,
	}
}
