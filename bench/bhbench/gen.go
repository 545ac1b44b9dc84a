package main

import "math/rand"

// zipfKeys draws n indices in [0, size) with Zipf(s) popularity: a few
// keys are asked for again and again (the server's memo caches hit),
// most are asked for rarely. The same seed gives the same sequence.
func zipfKeys(seed int64, s float64, size, n int) []int {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(size-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// mix picks op classes with fixed probabilities from a seeded stream.
type mix struct {
	r     *rand.Rand
	names []string
	cum   []float64
}

// newMix takes class names with their shares; shares need not sum to 1.
func newMix(seed int64, names []string, shares []float64) *mix {
	m := &mix{r: rand.New(rand.NewSource(seed)), names: names}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	acc := 0.0
	for _, s := range shares {
		acc += s / total
		m.cum = append(m.cum, acc)
	}
	return m
}

func (m *mix) next() string {
	x := m.r.Float64()
	for i, c := range m.cum {
		if x < c {
			return m.names[i]
		}
	}
	return m.names[len(m.names)-1]
}
