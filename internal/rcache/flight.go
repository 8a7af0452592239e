package rcache

import (
	"context"
	"sync"
	"sync/atomic"

	"merchandiser/internal/merr"
)

// flight is one in-progress computation plus its eventual outcome.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Group collapses concurrent identical cache misses into one
// computation. The first caller for a key becomes the leader and runs
// fn; callers that arrive while the leader is in flight wait on its
// result instead of computing it again. Waiting is ctx-aware: a
// follower whose own context dies stops waiting, and a follower is
// handed a leader error only when the leader's work itself failed — the
// caller decides whether to retry (serve does, when the leader was
// merely canceled but the follower's context is still live).
//
// The zero value is ready to use; a nil *Group runs every fn directly
// (no collapsing), mirroring the nil *Cache no-op.
type Group struct {
	mu      sync.Mutex
	flights map[Key]*flight

	collapsed atomic.Uint64
}

// Collapsed reports how many calls were absorbed into another caller's
// in-flight computation.
func (g *Group) Collapsed() uint64 {
	if g == nil {
		return 0
	}
	return g.collapsed.Load()
}

// Do runs fn for key, collapsing into an identical in-flight call when
// one exists. shared reports whether the result came from another
// caller's flight. When ctx ends first, Do returns the context's error
// (via merr.FromContext) without waiting further; the leader's fn keeps
// running and later followers still get its result.
func (g *Group) Do(ctx context.Context, key Key, fn func() (any, error)) (val any, shared bool, err error) {
	if g == nil {
		v, err := fn()
		return v, false, err
	}
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[Key]*flight)
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		g.collapsed.Add(1)
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return nil, true, merr.FromContext(ctx, "rcache: abandoned in-flight wait")
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}
