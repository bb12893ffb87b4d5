package active

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/predcache"
	"perfpred/internal/stat"
)

// Round is the acquisition context one strategy decision sees: the
// current labeled set, the unlabeled pool, and the committee trained on
// the labeled set this round. Everything a strategy may randomize must
// derive from Seed, and every fan-out must go through Opts, so an
// acquisition is bit-identical at any worker count.
type Round struct {
	// Pool is the unlabeled candidate set the strategy picks from.
	Pool *dataset.Dataset
	// Labeled is the already-simulated training set.
	Labeled *dataset.Dataset
	// Members is the committee trained on Labeled this round.
	Members []Member
	// Seed is the round's derived acquisition seed.
	Seed int64
	// Opts configures engine fan-outs (pool scoring, distance updates).
	Opts engine.Options
}

// Strategy is one registered acquisition policy, mirroring the model
// registry's Family pattern: a named descriptor behind a process-wide
// registry, so new policies are one Register call away from every
// workflow and CLI flag.
type Strategy struct {
	// Name is the policy's wire form (the -acquire flag, reports).
	Name string
	// Description is one line for -acquire listings and docs.
	Description string
	// Acquire returns k distinct pool row indices, in acquisition order.
	// It must be deterministic for a fixed Round.Seed at any Opts.Workers.
	Acquire func(ctx context.Context, r *Round, k int) ([]int, error)
}

// Strategy registry. Registration happens in this package's init (and
// any future package's), single-threaded before main; lookups afterwards
// are read-only.
var (
	stratMu    sync.Mutex
	strategies = map[string]Strategy{}
)

// Register binds an acquisition strategy by name. It panics on a
// duplicate name or an incomplete descriptor — build-time wiring
// mistakes, never runtime conditions.
func Register(s Strategy) {
	stratMu.Lock()
	defer stratMu.Unlock()
	if s.Name == "" || s.Acquire == nil {
		panic("active: incomplete strategy descriptor")
	}
	if _, ok := strategies[s.Name]; ok {
		panic(fmt.Sprintf("active: strategy %q registered twice", s.Name))
	}
	strategies[s.Name] = s
}

// LookupStrategy resolves a registered strategy by name.
func LookupStrategy(name string) (Strategy, bool) {
	s, ok := strategies[name]
	return s, ok
}

// Strategies lists the registered strategy names, sorted.
func Strategies() []string {
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in strategy names.
const (
	// StrategyCommittee acquires where the committee disagrees most.
	StrategyCommittee = "committee"
	// StrategyDiversity acquires a greedy max-min diverse batch.
	StrategyDiversity = "diversity"
	// StrategyEI acquires by expected improvement over the best design.
	StrategyEI = "ei"
)

func init() {
	Register(Strategy{
		Name:        StrategyCommittee,
		Description: "committee disagreement: predictive variance across the trained kinds plus TREE-B per-tree spread",
		Acquire:     acquireCommittee,
	})
	Register(Strategy{
		Name:        StrategyDiversity,
		Description: "greedy max-min diversity in the encoded feature space, with canonical-hash dedup",
		Acquire:     acquireDiversity,
	})
	Register(Strategy{
		Name:        StrategyEI,
		Description: "expected improvement toward the best (lowest-target) design under the committee posterior",
		Acquire:     acquireEI,
	})
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

// acquireCommittee scores every pool row's committee variance and takes
// the k most-disputed rows.
func acquireCommittee(ctx context.Context, r *Round, k int) ([]int, error) {
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
	return topK(vari, k), nil
}

// acquireEI ranks pool rows by expected improvement below the best
// (lowest) labeled target — the best-design-search acquisition. The
// committee posterior at a row is N(mean, vari); with best b, mean μ and
// deviation σ the expected improvement is (b−μ)Φ(z) + σφ(z), z=(b−μ)/σ,
// degenerating to max(b−μ, 0) when the committee fully agrees.
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

// diversityParallelMin is the pool size above which the min-distance
// sweeps fan out on the engine pool.
const diversityParallelMin = 2 * scoreChunk

// acquireDiversity picks a greedy max-min (k-center) batch in the flat
// encoded feature space: each pick is the pool row farthest (squared
// euclidean) from everything labeled or already picked. The space is a
// ForNN encoding fitted on the pool, so distances are over the same
// post-EncodeRowInto flat rows the kernels consume. Exact-duplicate
// rows are deduplicated through predcache's canonical row hash: a
// candidate hashing onto an already-covered row is skipped while any
// novel candidate remains, so a batch never spends two simulations on
// one configuration. Needs no committee — it is the cold-start policy.
func acquireDiversity(ctx context.Context, r *Round, k int) ([]int, error) {
	enc, err := dataset.FitEncoder(r.Pool, dataset.ForNN)
	if err != nil {
		return nil, fmt.Errorf("active: fitting diversity encoder: %w", err)
	}
	n := r.Pool.Len()
	encode := func(d *dataset.Dataset) ([][]float64, []uint64, error) {
		var buf dataset.RowBuffer
		rows, err := enc.EncodeRows(&buf, d.Rows(0, d.Len()))
		if err != nil {
			return nil, nil, err
		}
		hashes := make([]uint64, len(rows))
		for i, x := range rows {
			hashes[i] = predcache.HashRow(x)
		}
		return rows, hashes, nil
	}
	pool, poolHash, err := encode(r.Pool)
	if err != nil {
		return nil, err
	}
	labeled, labeledHash, err := encode(r.Labeled)
	if err != nil {
		return nil, err
	}
	covered := make(map[uint64]bool, len(labeledHash)+k)
	for _, h := range labeledHash {
		covered[h] = true
	}

	// minDist[i] is row i's squared distance to its nearest covered row;
	// sweeps update it index-addressed, so fan-out order cannot matter.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	sweep := func(center []float64) error {
		update := func(ctx context.Context, lo, hi int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := lo; i < hi; i++ {
				if d := sqDist(pool[i], center); d < minDist[i] {
					minDist[i] = d
				}
			}
			return nil
		}
		if n < diversityParallelMin {
			return update(ctx, 0, n)
		}
		return engine.Map(ctx, r.Opts, n, scoreChunk, "active diversity", update)
	}
	for _, row := range labeled {
		if err := sweep(row); err != nil {
			return nil, err
		}
	}

	picks := make([]int, 0, k)
	chosen := make([]bool, n)
	for len(picks) < k {
		best, bestDup := -1, -1
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			if covered[poolHash[i]] {
				if bestDup < 0 {
					bestDup = i
				}
				continue
			}
			if best < 0 || minDist[i] > minDist[best] {
				best = i
			}
		}
		if best < 0 {
			// Only exact duplicates remain; spend the budget lowest-index
			// first rather than returning a short batch.
			best = bestDup
		}
		if best < 0 {
			break
		}
		picks = append(picks, best)
		chosen[best] = true
		covered[poolHash[best]] = true
		if err := sweep(pool[best]); err != nil {
			return nil, err
		}
	}
	return picks, nil
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
