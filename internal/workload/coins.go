package workload

import "math/rand"

// coins is one intent's withdrawal coin stream: the Float64 draws of
// rand.New(rand.NewSource(seed)), without seeding its 607-word register.
//
// math/rand seeds the register from the Lehmer chain x ← 48271·x mod
// (2³¹−1), started at the reduced seed x₀: word i XORs chain values
// 21+3i, 22+3i and 23+3i, shifted by 40, 20 and 0 bits, with
// rngCooked[i]. Draw k < 273 of a fresh source is word 333−k plus word
// 606−k, so each of the first coinDraws draws is two jumps along the
// chain. Later draws come from a real source.
type coins struct {
	seed int64
	x    [2]uint64 // first chain values of the two words the next draw adds
	k    int
	r    *rand.Rand
}

const (
	lehmerA, lehmerM = 48271, 1<<31 - 1
	// Draw 0's words start at chain values 21+3·333 and 21+3·606, that
	// is 48271 to those powers times x₀; each later draw's words start
	// three steps back, times 48271⁻³ (all mod 2³¹−1).
	jumpFeed, jumpTap, back3 = 2082024995, 933195560, 856800417
	// coinDraws is how many draws coins derives directly: Materialize
	// draws one coin per ON phase, and pattern draws at most ten phases.
	coinDraws = 10
)

// coinCooked[k] is rngCooked[333−k] and rngCooked[606−k] from Go's
// math/rand/rng.go: the constants of the two words draw k adds.
var coinCooked = [coinDraws][2]int64{
	{-4633371852008891965, 4152330101494654406}, {4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023}, {220828013409515943, -2171292963361310674},
	{-7602572252857820065, -6278469401177312761}, {-4799698790548231394, -307900319840287220},
	{3648778920718647903, -1894351639983151068}, {581945337509520675, -758328221503023383},
	{-8060058171802589521, 5896236396443472108}, {-6564663803938238204, -6344160503358350167},
}

// newCoins reduces seed the way rngSource.Seed does.
func newCoins(seed int64) coins {
	x := (seed%lehmerM + lehmerM) % lehmerM
	if x == 0 {
		x = 89482311
	}
	return coins{seed: seed, x: [2]uint64{uint64(x) * jumpFeed % lehmerM, uint64(x) * jumpTap % lehmerM}}
}

// Float64 is rand.Rand.Float64 over the stream.
func (c *coins) Float64() float64 {
	for {
		if f := float64(c.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

func (c *coins) int63() int64 {
	if c.k++; c.k > coinDraws {
		if c.r == nil {
			c.r = rand.New(rand.NewSource(c.seed))
			for range coinDraws {
				c.r.Int63()
			}
		}
		return c.r.Int63()
	}
	var sum uint64
	for s, x := range c.x {
		c.x[s] = x * back3 % lehmerM
		y := x * lehmerA % lehmerM
		sum += x<<40 ^ y<<20 ^ y*lehmerA%lehmerM ^ uint64(coinCooked[c.k-1][s])
	}
	return int64(sum &^ (1 << 63))
}
