package linreg

import (
	"testing"

	"perfpred/internal/stat"
)

// encodedSample draws an n×p design shaped like an LR-encoded design-space
// sample: every column min-max scaled onto four levels in [0, 1], a target
// driven by the first six columns, and the rest pure noise for Backward
// elimination to remove.
func encodedSample(n, p int) (x [][]float64, y []float64) {
	r := stat.NewRand(5)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(r.Intn(4)) / 3
		}
		x[i] = row
		y[i] = 3 + 2*row[0] - 1.5*row[1] + row[2] + 0.5*row[3]*row[4] - 0.3*row[5] + 0.2*r.NormFloat64()
	}
	return x, y
}

// BenchmarkFitBackward measures one LR-B fit at the sampled-DSE job's
// size: 138 rows (3 % of the 4608-point space) by the 24 LR-encoded
// design-space columns. Backward elimination factors every one-smaller
// candidate subset of every surviving set, so this is the candidate solve
// the fit's workspace serves.
func BenchmarkFitBackward(b *testing.B) {
	x, y := encodedSample(138, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, nil, Options{Method: Backward}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCandidateSolveZeroAlloc pins the RSS-only candidate path: once a
// fit's workspace exists, scoring a candidate subset and a whole Backward
// removal sweep over the full design allocate nothing.
func TestCandidateSolveZeroAlloc(t *testing.T) {
	x, y := encodedSample(138, 24)
	p := len(x[0])
	w := newLSQ(len(x), 1+p)
	subset := []int{0, 2, 3, 5, 7, 11, 13}
	want := w.rssOf(x, y, subset)
	if allocs := testing.AllocsPerRun(100, func() {
		if got := w.rssOf(x, y, subset); got != want {
			t.Fatalf("rssOf not reproducible: %v then %v", want, got)
		}
	}); allocs != 0 {
		t.Fatalf("candidate solve allocates %v objects, want 0", allocs)
	}
	opts := Options{Method: Backward}.withDefaults()
	full := seqInts(p)
	current := make([]int, 0, p)
	reduced := make([]int, 0, p)
	if allocs := testing.AllocsPerRun(5, func() {
		w.removeSweep(x, y, append(current[:0], full...), reduced, opts)
	}); allocs != 0 {
		t.Fatalf("backward sweep allocates %v objects, want 0", allocs)
	}
}
