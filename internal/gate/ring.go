// Package gate is the fleet front tier behind cmd/merchgate: it
// consistent-hashes placement requests across N merchserved replicas,
// routes around unhealthy ones using each replica's /readyz, retries
// bounded hops along the ring on connection failure, and exposes the
// fleet's per-replica model versions at /fleetz so a mixed-version
// rollout is diagnosable from one place.
package gate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over a fixed replica set.
// Each node projects vnodes points onto a uint64 circle; a key routes to
// the first point clockwise of its hash. Adding or removing one replica
// moves only ~1/N of the key space — the property that keeps per-app
// request streams (and therefore their replica cache entries) pinned to
// a stable replica as the fleet changes.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256, stable across
// processes and Go versions (unlike maphash), so every gate instance
// agrees on the mapping.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over nodes with vnodes virtual points per node
// (vnodes <= 0 defaults to 128).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Sequence returns up to max distinct node indices in ring order
// starting at key's position: the primary replica first, then the
// fallbacks a bounded retry walks.
func (r *Ring) Sequence(key string, max int) []int {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.nodes) {
		max = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool, max)
	out := make([]int, 0, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
