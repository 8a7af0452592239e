package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lagFib must replay math/rand's sequence for a seed, across many blocks.
func TestLagFibMatchesMathRand(t *testing.T) {
	const draws = 2_000_000
	for _, seed := range []int64{0, 1, -5, 1 << 40} {
		g, rng := newLagFib(seed), rand.New(rand.NewSource(seed))
		for i := range draws {
			if got, want := g.int63(), uint64(rng.Int63()); got != want {
				t.Fatalf("seed %d: draw %d is %d, math/rand's %d", seed, i, got, want)
			}
		}
	}
}

// script is a rand.Source that returns fixed values, for driving
// Rand.Float64 onto chosen draws.
type script struct {
	vals []uint64
	i    int
}

func (s *script) Int63() int64 {
	x := s.vals[s.i]
	s.i++
	return int64(x)
}

func (s *script) Seed(int64) { panic("script: Seed") }

// thresholdProbes are the quadrant sums of the applications' RMAT
// parameters (Graph500 for BFS, 0.35/0.25/0.25 for SpGEMM), as RMAT
// forms them, plus the edge cases.
var thresholdProbes = []float64{
	0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19,
	0.35, 0.35 + 0.25, 0.35 + 0.25 + 0.25,
	0, 1, math.NaN(),
}

// Each threshold must split the draws around it exactly where
// Float64() >= t does, and a draw Float64 rejects must be redrawn.
func TestDrawThresholdMatchesFloat64(t *testing.T) {
	one := drawThreshold(1)
	if one == 0 || one >= 1<<63 || unit(one) != 1 || unit(one-1) >= 1 {
		t.Fatalf("threshold for 1 is %d: unit %v, below it %v", one, unit(one), unit(one-1))
	}
	const fallback = 12345
	for _, p := range thresholdProbes {
		th := drawThreshold(p)
		switch {
		case p == 0 && th != 0:
			t.Fatalf("threshold for 0 is %d", th)
		case math.IsNaN(p) && th != 1<<63:
			t.Fatalf("threshold for NaN is %d, want 2^63 (no draw passes)", th)
		}
		// The draws next to the threshold, plus the least and the largest
		// draw Float64 accepts, so that t = NaN checks some.
		probes := []uint64{0, one - 1}
		for d := uint64(1); d <= 3; d++ {
			if th >= d {
				probes = append(probes, th-d)
			}
			probes = append(probes, th+d-1)
		}
		for _, x := range probes {
			if x >= 1<<63 {
				continue // not a draw
			}
			f := rand.New(&script{vals: []uint64{x, fallback}}).Float64()
			if x >= one {
				// Float64 rejects x; draw must too.
				if f != unit(fallback) {
					t.Fatalf("t=%v: Float64 kept draw %d", p, x)
				}
				g := &lagFib{}
				g.vec[0], g.vec[1], g.vec[lagLen] = x, fallback, math.MaxUint64
				if got := g.draw(one); got != fallback {
					t.Fatalf("t=%v: draw kept %d (rejected by Float64), want the redraw %d", p, got, fallback)
				}
				continue
			}
			if got, want := x >= th, f >= p; got != want {
				t.Fatalf("t=%v threshold %d: draw %d passes %v, Float64() >= t is %v (f=%v)", p, th, x, got, want, f)
			}
		}
	}
}

// Over a seeded stream, draw and unit must give Float64's values and the
// thresholds its comparisons.
func TestDrawMatchesFloat64Stream(t *testing.T) {
	one := drawThreshold(1)
	ths := make([]uint64, len(thresholdProbes))
	for i, p := range thresholdProbes {
		ths[i] = drawThreshold(p)
	}
	g, rng := newLagFib(7), rand.New(rand.NewSource(7))
	for i := range 1_000_000 {
		x, f := g.draw(one), rng.Float64()
		if unit(x) != f {
			t.Fatalf("draw %d: unit %v, Float64 %v", i, unit(x), f)
		}
		for j, p := range thresholdProbes {
			if (x >= ths[j]) != (f >= p) {
				t.Fatalf("draw %d (%v) against t=%v: threshold disagrees", i, f, p)
			}
		}
	}
}

// A block's values may be rejected anywhere, its last one included, and
// the sentinel must hand over to the next block: draw must follow
// Rand.Float64 over the same values.
func TestDrawRedrawsLikeFloat64(t *testing.T) {
	one := drawThreshold(1)
	g := newLagFib(3)
	vals := slices.Clone(g.vec[:lagLen])
	for k, i := range []int{0, 1, 2, 300, lagLen - 1} {
		vals[i] = one + uint64(k) // rejected: unit rounds to 1
	}
	copy(g.vec[:], vals)
	src := &script{vals: vals}
	rng := rand.New(src)
	accepted := 0
	for src.i < lagLen-1 { // stop before the rejected last value
		want := rng.Float64()
		if got := unit(g.draw(one)); got != want {
			t.Fatalf("accepted draw %d: %v, Float64 %v", accepted, got, want)
		}
		accepted++
	}
	if accepted != lagLen-5 {
		t.Fatalf("%d draws accepted from a block of %d with 5 rejected", accepted, lagLen)
	}
	// The block's last value is rejected, so the next draw is the first
	// value of the next block.
	next := lagFib{k: lagLen}
	copy(next.vec[:], vals)
	want := next.int63()
	if want >= one {
		t.Fatalf("the next block starts with a rejected value %d; pick another seed", want)
	}
	if got := g.draw(one); got != want {
		t.Fatalf("first draw of the next block %d, want %d", got, want)
	}
}
