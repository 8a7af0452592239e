package sparse

import (
	"math"
	"math/rand"
)

// math/rand's default source is an additive lagged-Fibonacci generator:
// its outputs obey x[n] = x[n-607] + x[n-273] (mod 2^64), and Int63 keeps
// each one's low 63 bits, which depend only on the addends' low 63 bits.
const (
	lagLen  = 607
	lagTap  = 273
	lagMask = 1<<63 - 1
)

// lagFib yields rand.New(rand.NewSource(seed)).Int63()'s sequence without
// an interface call per draw. It is seeded with the first 607 outputs of a
// fresh source, returns those, then continues the recurrence a block of
// 607 values at a time. It relies on math/rand keeping its sequence for a
// seed, which the Go 1 compatibility promise covers and the tests check.
type lagFib struct {
	// vec holds x[b·607 : (b+1)·607] for the current block b, then a
	// sentinel no draw accepts, so draw's inlined fast path needs no
	// separate end-of-block test.
	vec [lagLen + 1]uint64
	k   int // index of the next value in vec
}

func newLagFib(seed int64) *lagFib {
	src := rand.NewSource(seed).(rand.Source64)
	g := &lagFib{}
	for i := range lagLen {
		g.vec[i] = src.Uint64() & lagMask
	}
	g.vec[lagLen] = math.MaxUint64
	return g
}

// refill replaces the block with the next one, in place. Entry t of the
// new block is x[n] with n-607 at old entry t, and n-273 at old entry
// t+334 for t < 273 or at new entry t-273 after that, already written.
func (g *lagFib) refill() {
	v := &g.vec
	for t := 0; t < lagTap; t++ {
		v[t] = (v[t] + v[t+lagLen-lagTap]) & lagMask
	}
	for t := lagTap; t < lagLen; t++ {
		v[t] = (v[t] + v[t-lagTap]) & lagMask
	}
	g.k = 0
}

// int63 returns the next value of the sequence.
func (g *lagFib) int63() uint64 {
	if g.k == lagLen {
		g.refill()
	}
	x := g.vec[g.k]
	g.k++
	return x
}

// draw returns the next value Rand.Float64 accepts, given one =
// drawThreshold(1): Float64 redraws when its quotient rounds up to 1.
// The common case, a value left in the block and below one, is inlined;
// the sentinel at the end of a block and a rejected value go through
// drawSlow.
func (g *lagFib) draw(one uint64) uint64 {
	if x := g.vec[g.k]; x < one {
		g.k++
		return x
	}
	return g.drawSlow(one)
}

// drawSlow stays out of line, so that draw fits the compiler's inlining
// budget and inlines into RMAT's loops.
//
//go:noinline
func (g *lagFib) drawSlow(one uint64) uint64 {
	for {
		if x := g.int63(); x < one {
			return x
		}
	}
}

// unit is Rand.Float64's value for draw x.
func unit(x uint64) float64 { return float64(int64(x)) / (1 << 63) }

// drawThreshold returns the least x in [0, 2^63) with unit(x) >= t, or
// 2^63 when there is none (t > 1, or NaN). unit never decreases as x
// grows, so a draw x passes Float64() >= t exactly when x reaches the
// threshold; bisection on unit itself finds it.
func drawThreshold(t float64) uint64 {
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if unit(mid) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// atOrAbove is 1 when x ≥ t, else 0; the compiler turns it into a flag
// move, so a random x costs no mispredicted branch.
func atOrAbove(x, t uint64) int32 {
	if x >= t {
		return 1
	}
	return 0
}
