package stat

import "math/rand"

// SplitMix64 advances the SplitMix64 generator state and returns the next
// value. It is used to derive statistically independent sub-seeds from a
// master seed so parallel work items (design-space simulations, CV folds,
// ensemble members) get reproducible private random streams regardless of
// scheduling order.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed returns a deterministic sub-seed for stream index i under the
// given master seed. Distinct (seed, i) pairs yield well-separated seeds.
func DeriveSeed(seed int64, i int) int64 {
	s := uint64(seed) ^ 0x8e95_61b8_4ca5_d6e1
	s += uint64(i+1) * 0x9e3779b97f4a7c15
	return int64(SplitMix64(&s))
}

// NewRand returns a new deterministic PRNG seeded with seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Reseed puts r in exactly the state NewRand(seed) starts in and returns
// it; a nil r gets a new generator. A worker that draws many short streams
// reseeds one generator instead of allocating a 4.9 KB source per stream,
// and every draw is the same. Reseed a generator only once its previous
// stream is finished.
func Reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return NewRand(seed)
	}
	r.Seed(seed)
	return r
}

// NewSubRand returns a deterministic PRNG for stream i of the master seed.
func NewSubRand(seed int64, i int) *rand.Rand {
	return NewRand(DeriveSeed(seed, i))
}

// Perm returns a deterministic pseudo-random permutation of n elements for
// the given seed.
func Perm(seed int64, n int) []int {
	return NewRand(seed).Perm(n)
}
