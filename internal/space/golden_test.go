package space

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"perfpred/internal/engine"
)

// cyclesDigest is the SHA-256 over the IEEE-754 bits of every cycle
// count, in order.
func cyclesDigest(cycles []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range cycles {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSweepCycles pins every cycle count of the full space for gcc
// and mcf at a 60k trace. TestEvaluatorMatchesOracle compares the staged
// evaluator with a direct walk built on the same mem.Cache, so it cannot
// see a bug in the cache itself; these digests were captured from the
// per-set tag and valid slices and the sweep that cut the enumeration
// into fixed chunks, and hold every later cache layout and sweep schedule
// to that code's numbers. The sweep runs at 1 and 4 workers and once over
// a seeded shuffle of the configurations, scattered back to enumeration
// order.
func TestGoldenSweepCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps two full spaces")
	}
	want := map[string]string{
		"gcc": "f135b29adfdbac61560410d85f790d00d8e13a78b747754d8f77866e13fb2553",
		"mcf": "187d7099655fb75b0423faa1d5468834b0ed29f29b1cc84acc1e5b892081863a",
	}
	all := Enumerate()
	perm := rand.New(rand.NewSource(29)).Perm(len(all))
	shuffled := make([]MicroConfig, len(all))
	for i, p := range perm {
		shuffled[i] = all[p]
	}
	for _, bench := range []string{"gcc", "mcf"} {
		for _, run := range []struct {
			name    string
			workers int
			shuffle bool
		}{{"workers=1", 1, false}, {"workers=4", 4, false}, {"shuffled", 4, true}} {
			cfgs := all
			if run.shuffle {
				cfgs = shuffled
			}
			cycles, err := Sweep(context.Background(), sweepTrace(t, bench, 60000), cfgs, engine.Options{Workers: run.workers})
			if err != nil {
				t.Fatal(err)
			}
			if run.shuffle {
				ordered := make([]float64, len(cycles))
				for i, p := range perm {
					ordered[p] = cycles[i]
				}
				cycles = ordered
			}
			if got := cyclesDigest(cycles); got != want[bench] {
				t.Errorf("%s %s: cycles sha256 %s, want %s", bench, run.name, got, want[bench])
			}
		}
	}
}
