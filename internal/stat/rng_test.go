package stat

import (
	"testing"
	"testing/quick"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(42, 7)
	b := DeriveSeed(42, 7)
	if a != b {
		t.Fatalf("DeriveSeed not deterministic: %v vs %v", a, b)
	}
}

func TestDeriveSeedDistinctStreams(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collide", i, j)
		}
		seen[s] = i
	}
}

func TestDeriveSeedDistinctMasters(t *testing.T) {
	f := func(s1, s2 int16, i uint8) bool {
		if s1 == s2 {
			return true
		}
		return DeriveSeed(int64(s1), int(i)) != DeriveSeed(int64(s2), int(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewSubRandReproducible(t *testing.T) {
	r1 := NewSubRand(99, 3)
	r2 := NewSubRand(99, 3)
	for i := 0; i < 10; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("sub-streams diverge")
		}
	}
}

// TestReseedMatchesNewRand: a generator that has drawn from another
// stream, Read bytes included, continues exactly like a fresh one once
// reseeded.
func TestReseedMatchesNewRand(t *testing.T) {
	used := Reseed(nil, 5)
	used.Perm(300)
	used.Read(make([]byte, 3))
	for _, seed := range []int64{1, DeriveSeed(7, 2), -4} {
		r := Reseed(used, seed)
		if r != used {
			t.Fatal("Reseed allocated a new generator")
		}
		fresh := NewRand(seed)
		a, b := make([]byte, 5), make([]byte, 5)
		r.Read(a)
		fresh.Read(b)
		if string(a) != string(b) || r.Int63() != fresh.Int63() || r.NormFloat64() != fresh.NormFloat64() {
			t.Fatalf("seed %d: reseeded stream diverges from a fresh one", seed)
		}
		ra, fa := r.Perm(50), fresh.Perm(50)
		for i := range ra {
			if ra[i] != fa[i] {
				t.Fatalf("seed %d: reseeded Perm diverges at %d", seed, i)
			}
		}
		used.Intn(9)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := Perm(5, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for SplitMix64 seeded with 0 (from the public-domain
	// reference implementation by Sebastiano Vigna).
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}
