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

// TestFitAllocsPerTree pins the worker-owned tree scratch: each engine
// worker of a fit's pool grows all its trees in one builder, bootstrap,
// set of presorted feature orders, generator and set of OOB buffers,
// reseeding the generator for every stream, and each tree writes its
// importance into a row of the fit's one trees × p matrix. Every tree
// task shares one Run func, and without a hook no task label is built,
// so a tree allocates only its exact-size node slice: 1.41 objects per
// tree measured on 64 trees, with or without the race detector, against
// 2.41 with a closure per tree, 4.4 with a label and an importance row
// per tree and 13.3 when each tree owned its scratch. The bound is the
// measured value plus one.
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
	if perTree := allocs / trees; perTree > 2.41 {
		t.Fatalf("Fit allocates %.2f objects per tree, want <= 2.41", perTree)
	}
}
