package active

import (
	"context"
	"math"
	"sort"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// Round is the acquisition context one round's decision sees: the
// current labeled set, the unlabeled pool, and the committee trained on
// the labeled set this round. Every fan-out goes through Opts, so an
// acquisition is bit-identical at any worker count.
type Round struct {
	// Pool is the unlabeled candidate set acquisition picks from.
	Pool *dataset.Dataset
	// Labeled is the already-simulated training set.
	Labeled *dataset.Dataset
	// Members is the committee trained on Labeled this round.
	Members []Member
	// Opts configures the pool-scoring fan-out.
	Opts engine.Options
}

// topK returns the indices of the k largest scores in descending score
// order, ties breaking toward the lowest index — so a batch is
// deterministic even on plateaus (an untrained committee scoring
// everything zero, say).
func topK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// acquireEI ranks pool rows by expected improvement below the best
// (lowest) labeled target — the best-design-search acquisition. The
// committee posterior at a row is N(mean, vari); with best b, mean μ and
// deviation σ the expected improvement is (b−μ)Φ(z) + σφ(z), z=(b−μ)/σ,
// degenerating to max(b−μ, 0) when the committee fully agrees. It
// returns the k highest-scoring pool row indices, in acquisition order.
func acquireEI(ctx context.Context, r *Round, k int) ([]int, error) {
	scorer, err := NewScorer(r.Members)
	if err != nil {
		return nil, err
	}
	n := r.Pool.Len()
	mean := make([]float64, n)
	vari := make([]float64, n)
	if err := scorer.ScoreAll(ctx, r.Opts, r.Pool, mean, vari); err != nil {
		return nil, err
	}
	best := math.Inf(1)
	for i := 0; i < r.Labeled.Len(); i++ {
		if y := r.Labeled.Target(i); y < best {
			best = y
		}
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = expectedImprovement(best, mean[i], math.Sqrt(vari[i]))
	}
	return topK(scores, k), nil
}

// expectedImprovement is the closed-form EI of a Gaussian posterior
// toward minimizing the target.
func expectedImprovement(best, mu, sigma float64) float64 {
	imp := best - mu
	if sigma <= 0 {
		if imp > 0 {
			return imp
		}
		return 0
	}
	z := imp / sigma
	return imp*stat.StdNormalCDF(z) + sigma*stdNormalPDF(z)
}

func stdNormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}
