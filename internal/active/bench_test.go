package active

import (
	"context"
	"testing"

	"perfpred/internal/engine"
)

// benchRound builds a realistic acquisition instance: a pool large
// enough to take the parallel paths, a labeled set a committee would
// have trained on, and a three-member mixed committee (two plain
// members plus one Spreader).
func benchRound(b testing.TB, poolN int) *Round {
	pool := testSpace(b, poolN, 101)
	labeled := testSpace(b, poolN/10, 102)
	enc := lrEncoder(b, pool)
	return &Round{
		Pool:    pool,
		Labeled: labeled,
		Members: []Member{
			stubMember("A", enc, 1, 0),
			stubMember("B", enc, -0.5, 1),
			spreadMember("C", enc, 0.25, 0.5, 0.3),
		},
		Opts: engine.Options{Workers: 4},
	}
}

// BenchmarkScoreChunk is the subsystem's hot path and must report
// 0 allocs/op: a warmed worker-local scratch scores a full chunk with
// no steady-state allocation (the committed BENCH_10.json pins it).
func BenchmarkScoreChunk(b *testing.B) {
	r := benchRound(b, scoreChunk)
	scorer, err := NewScorer(r.Members)
	if err != nil {
		b.Fatal(err)
	}
	n := r.Pool.Len()
	mean := make([]float64, n)
	vari := make([]float64, n)
	ctx := engine.NewWorkerContext(context.Background())
	if err := scorer.ScoreChunk(ctx, r.Pool, 0, n, mean, vari); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scorer.ScoreChunk(ctx, r.Pool, 0, n, mean, vari); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquireEI is one end-to-end batch acquisition over a
// 2048-point pool (the committed BENCH_10.json pins its allocs/op at
// GOMAXPROCS=1; TestAcquireEIAllocs holds the same count in tier-1).
func BenchmarkAcquireEI(b *testing.B) {
	r := benchRound(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acquireEI(context.Background(), r, 16); err != nil {
			b.Fatal(err)
		}
	}
}
