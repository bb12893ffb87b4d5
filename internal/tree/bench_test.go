package tree

import (
	"context"
	"testing"

	"perfpred/internal/stat"
)

func benchData(n, p int) (x [][]float64, y []float64) {
	r := stat.NewRand(7)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(r.Intn(64)) / 63
		}
		x[i] = row
		y[i] = 5*row[0] + 2*row[1]*row[1] + row[2]
	}
	return x, y
}

// BenchmarkTrainTree measures a full TREE-B fit (bootstraps, greedy
// splits, and OOB permutation importance) at the default ensemble size.
func BenchmarkTrainTree(b *testing.B) {
	x, y := benchData(512, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(context.Background(), x, y, Config{Seed: 11, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreePredictAll measures steady-state batch scoring — the
// serving hot path, which must not allocate.
func BenchmarkTreePredictAll(b *testing.B) {
	x, y := benchData(512, 8)
	m, err := Fit(context.Background(), x, y, Config{Seed: 11, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictAllInto(dst, x)
	}
	b.SetBytes(int64(len(x) * 8))
}

// TestFitAllocsPerTree pins the builder's per-fit scratch: a tree owns one
// sort buffer, one partition buffer and one node array for its whole
// growth, and its OOB importance reseeds the tree's generator instead of
// allocating one per feature, so a fit allocates a handful of objects per
// tree (13.3 measured on 64 trees), not some per node, sort and feature.
func TestFitAllocsPerTree(t *testing.T) {
	if testing.Short() {
		t.Skip("grows three 64-tree ensembles")
	}
	x, y := benchData(512, 8)
	const trees = 64
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Fit(context.Background(), x, y, Config{Trees: trees, Seed: 11, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if perTree := allocs / trees; perTree > 16 {
		t.Fatalf("Fit allocates %.1f objects per tree, want <= 16", perTree)
	}
}
