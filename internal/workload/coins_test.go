package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestCoinsMatchMathRand holds the jump-ahead coin stream to math/rand's
// own: for every seed, each draw up to the tabulated bound and past it
// equals what a freshly seeded rand.Rand returns. Int63 is compared bit
// for bit (Float64 is a function of it); Float64 itself on the edge seeds.
func TestCoinsMatchMathRand(t *testing.T) {
	pow := func(e int) uint64 {
		p := uint64(1)
		for range e {
			p = p * lehmerA % lehmerM
		}
		return p
	}
	if jumpFeed != pow(21+3*333) || jumpTap != pow(21+3*606) || back3*pow(3)%lehmerM != 1 {
		t.Fatal("jump constants are not the powers of 48271 their comment names")
	}
	seeds := []int64{0, 1, -1, 89482311, lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM,
		lehmerM - 1, lehmerM + 1, 1 << 31, -(1 << 31), math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
		math.MaxInt64 / lehmerM * lehmerM, math.MinInt64 / lehmerM * lehmerM}
	for idx := range int64(64) {
		seeds = append(seeds, 42^idx*0x5851F42D4C957F2D, 11^idx*0x5851F42D4C957F2D)
	}
	g := rand.New(rand.NewSource(7))
	for range 100_000 {
		seeds = append(seeds, int64(g.Uint64()))
	}
	const draws = coinDraws + 6
	r := rand.New(rand.NewSource(0))
	for i, seed := range seeds {
		c := newCoins(seed)
		r.Seed(seed)
		for k := range draws {
			if got, want := c.int63(), r.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, got, want)
			}
		}
		if i < 200 {
			c = newCoins(seed)
			r.Seed(seed)
			for k := range draws {
				if got, want := c.Float64(), r.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, k, got, want)
				}
			}
		}
	}
}
