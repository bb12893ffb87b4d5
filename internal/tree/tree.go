// Package tree implements bagged CART regression trees (TREE-B), the
// tree-ensemble surrogate family. Each tree is grown on a deterministic
// per-seed bootstrap resample with greedy variance-reduction splits, and
// feature importance comes from out-of-bag permutation: how much each
// tree's OOB error degrades when one feature's OOB values are shuffled.
//
// Like every family in the registry, fits are bit-identical for a fixed
// seed regardless of worker count: each tree derives a private RNG stream
// from (seed, tree index), trees train as independent engine tasks, and
// all cross-tree aggregation happens in tree order after the pool drains.
package tree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// Config configures Fit.
type Config struct {
	// Trees is the ensemble size (0 = 64).
	Trees int
	// MaxDepth bounds tree depth (0 = 8).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (0 = 2).
	MinLeaf int
	// Seed drives every stochastic choice (bootstraps, permutations).
	Seed int64
	// Workers bounds tree-level parallelism (0 = 1).
	Workers int
	// Hook, if non-nil, observes per-tree task and kernel-time events.
	// Observability only; never affects results.
	Hook engine.Hook
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 64
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// node is one flat-array tree node. Internal nodes route row r left when
// r[Feature] <= Threshold; leaves (Feature == -1) predict Value.
type node struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int32   `json:"l,omitempty"`
	Right     int32   `json:"r,omitempty"`
	Value     float64 `json:"v"`
}

// Model is a fitted bagged ensemble.
type Model struct {
	trees     [][]node
	numInputs int
	// importance is the fit-time OOB permutation importance per input
	// column, scaled so the strongest column is 1.0.
	importance []float64
}

// Fit grows the configured ensemble on x and y.
func Fit(ctx context.Context, x [][]float64, y []float64, cfg Config) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := len(x)
	if n == 0 {
		return nil, errors.New("tree: no training data")
	}
	if len(y) != n {
		return nil, errors.New("tree: x/y length mismatch")
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("tree: zero-width inputs")
	}
	for _, row := range x {
		if len(row) != p {
			return nil, errors.New("tree: ragged input matrix")
		}
	}
	if n < 4 {
		return nil, errors.New("tree: need at least 4 records")
	}

	trees := make([][]node, cfg.Trees)
	perTreeImp := make([][]float64, cfg.Trees)
	tasks := make([]engine.Task, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		t := t
		tasks[t] = engine.Task{
			Label: fmt.Sprintf("cart tree %d", t),
			Model: "TREE-B",
			Fold:  -1,
			Run: func(ctx context.Context) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				start := time.Now()
				treeSeed := stat.DeriveSeed(cfg.Seed, 1000+t)
				r := stat.NewRand(treeSeed)
				b := newBuilder(x, y, cfg)
				bag := make([]int, n)
				inBag := make([]bool, n)
				for i := range bag {
					j := r.Intn(n)
					bag[i] = j
					inBag[j] = true
				}
				b.build(bag, 0)
				trees[t] = slices.Clone(b.nodes)
				perTreeImp[t] = oobImportance(b.nodes, x, y, inBag, b.right[:0], r, treeSeed)
				if cfg.Hook != nil {
					cfg.Hook.Emit(engine.Event{
						Kind: engine.KernelTime, Label: fmt.Sprintf("cart tree %d", t),
						Model: "TREE-B", Fold: -1,
						Samples: int64(n), Elapsed: time.Since(start),
					})
				}
				return nil
			},
		}
	}
	if err := engine.Run(ctx, engine.Options{Workers: cfg.Workers, Hook: cfg.Hook}, tasks...); err != nil {
		return nil, err
	}

	// Cross-tree aggregation in tree order, after the pool drains, so the
	// summation order never depends on scheduling.
	imp := make([]float64, p)
	for _, ti := range perTreeImp {
		for j, v := range ti {
			imp[j] += v
		}
	}
	normalizeImportance(imp)
	return &Model{trees: trees, numInputs: p, importance: imp}, nil
}

// normalizeImportance rescales raw accumulated scores so the strongest
// column reads 1.0 (matching the neural family's 0-to-1 convention).
func normalizeImportance(imp []float64) {
	maxV := 0.0
	for _, v := range imp {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		return
	}
	for j := range imp {
		imp[j] /= maxV
	}
}

// oobImportance measures permutation importance on the tree's out-of-bag
// rows: the increase in OOB SSE when one feature's OOB values are
// shuffled. Negative increases (noise) clamp to zero. The permutation of
// feature j draws from the derived stream (treeSeed, 1+j), so it is
// independent of how the tree was grown and of every other feature; r,
// the tree's own generator, is reseeded onto that stream rather than a
// generator allocated per feature. oob is empty scratch of capacity
// len(inBag) that collects the out-of-bag row indices.
func oobImportance(nodes []node, x [][]float64, y []float64, inBag []bool, oob []int, r *rand.Rand, treeSeed int64) []float64 {
	p := len(x[0])
	imp := make([]float64, p)
	for i, in := range inBag {
		if !in {
			oob = append(oob, i)
		}
	}
	if len(oob) < 2 {
		return imp
	}
	base := 0.0
	for _, i := range oob {
		d := predictTree(nodes, x[i]) - y[i]
		base += d * d
	}
	buf := make([]float64, p)
	vals := make([]float64, len(oob))
	for j := 0; j < p; j++ {
		r.Seed(stat.DeriveSeed(treeSeed, 1+j))
		for k, i := range oob {
			vals[k] = x[i][j]
		}
		r.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		sse := 0.0
		for k, i := range oob {
			copy(buf, x[i])
			buf[j] = vals[k]
			d := predictTree(nodes, buf) - y[i]
			sse += d * d
		}
		if inc := (sse - base) / float64(len(oob)); inc > 0 {
			imp[j] = inc
		}
	}
	return imp
}

// builder grows one tree into a flat node array. Its scratch is sized
// once per tree: order holds the feature-sorted copy of a node's rows and
// right the right-hand rows while build partitions a node in place; nodes
// starts with the capacity of the largest tree the depth and row count
// allow, so growing the tree never reallocates.
type builder struct {
	x        [][]float64
	y        []float64
	maxDepth int
	minLeaf  int
	nodes    []node
	order    []int
	right    []int
}

func newBuilder(x [][]float64, y []float64, cfg Config) *builder {
	n := len(x)
	maxNodes := 2*n - 1 // a leaf holds at least one row
	if d := cfg.MaxDepth; d < 30 {
		maxNodes = min(maxNodes, 1<<(d+1)-1)
	}
	return &builder{
		x: x, y: y, maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf,
		nodes: make([]node, 0, maxNodes),
		order: make([]int, n),
		right: make([]int, n),
	}
}

// build appends the subtree over idx (bootstrap indices, may repeat) and
// returns its root's flat index. The split partitions idx stably in place
// — left rows first, each side in its original order — so the children
// sum their targets in the same order a copied partition would.
func (b *builder) build(idx []int, depth int) int32 {
	sum, sum2 := 0.0, 0.0
	for _, i := range idx {
		sum += b.y[i]
		sum2 += b.y[i] * b.y[i]
	}
	mean := sum / float64(len(idx))
	sse := sum2 - sum*sum/float64(len(idx))
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{Feature: -1, Value: mean})
	if depth >= b.maxDepth || len(idx) < 2*b.minLeaf || sse <= 0 {
		return id
	}
	feat, thr, ok := b.bestSplit(idx, sum, sum2)
	if !ok {
		return id
	}
	nl, right := 0, b.right[:0]
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	l := b.build(idx[:nl], depth+1)
	r := b.build(idx[nl:], depth+1)
	b.nodes[id] = node{Feature: feat, Threshold: thr, Left: l, Right: r, Value: mean}
	return id
}

// bestSplit finds the (feature, threshold) pair with the largest SSE
// reduction. Features are scanned in ascending index order and each
// feature's thresholds in ascending value order, and a candidate must
// strictly beat the incumbent, so ties deterministically resolve to the
// lowest feature and lowest threshold.
func (b *builder) bestSplit(idx []int, sum, sum2 float64) (feat int, thr float64, ok bool) {
	n := len(idx)
	parentSSE := sum2 - sum*sum/float64(n)
	order := b.order[:n]
	bestGain := 0.0
	for j := 0; j < len(b.x[0]); j++ {
		copy(order, idx)
		// Secondary sort key: the sample index, so equal feature values
		// order identically on every platform and run. The (value, index)
		// order is total, so the sorted sequence is unique whatever
		// algorithm produces it.
		slices.SortFunc(order, func(a, c int) int {
			va, vc := b.x[a][j], b.x[c][j]
			switch {
			case va < vc:
				return -1
			case va > vc:
				return 1
			}
			return a - c
		})
		sumL, sum2L := 0.0, 0.0
		for k := 0; k < n-1; k++ {
			yi := b.y[order[k]]
			sumL += yi
			sum2L += yi * yi
			v, next := b.x[order[k]][j], b.x[order[k+1]][j]
			if v == next {
				continue
			}
			nl := k + 1
			nr := n - nl
			if nl < b.minLeaf || nr < b.minLeaf {
				continue
			}
			sumR := sum - sumL
			sum2R := sum2 - sum2L
			sseL := sum2L - sumL*sumL/float64(nl)
			sseR := sum2R - sumR*sumR/float64(nr)
			if gain := parentSSE - sseL - sseR; gain > bestGain {
				bestGain = gain
				feat = j
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// predictTree walks one tree for one row.
func predictTree(nodes []node, row []float64) float64 {
	i := int32(0)
	for {
		nd := &nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if row[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

// Predict returns the ensemble mean for one encoded input row.
func (m *Model) Predict(row []float64) float64 {
	sum := 0.0
	for _, t := range m.trees {
		sum += predictTree(t, row)
	}
	return sum / float64(len(m.trees))
}

// PredictAllInto writes the ensemble prediction for every row of x into
// dst. Tree walks need no scratch, so the call never allocates.
func (m *Model) PredictAllInto(dst []float64, x [][]float64) {
	if len(dst) != len(x) {
		panic("tree: PredictAllInto dst/x length mismatch")
	}
	for i, row := range x {
		dst[i] = m.Predict(row)
	}
}

// PredictSpreadInto writes, for every row of x, the ensemble-mean
// prediction into mean and the per-tree spread — the population standard
// deviation of the member trees' predictions, in model-space units —
// into spread. The spread is the ensemble's internal disagreement, the
// uncertainty signal active-learning acquisition ranks unlabeled
// candidates by. Like PredictAllInto the walk needs no scratch and the
// call never allocates; mean[i] is bit-identical to Predict(x[i]).
func (m *Model) PredictSpreadInto(mean, spread []float64, x [][]float64) {
	if len(mean) != len(x) || len(spread) != len(x) {
		panic("tree: PredictSpreadInto mean/spread/x length mismatch")
	}
	k := float64(len(m.trees))
	for i, row := range x {
		sum, sum2 := 0.0, 0.0
		for _, t := range m.trees {
			v := predictTree(t, row)
			sum += v
			sum2 += v * v
		}
		mu := sum / k
		va := sum2/k - mu*mu
		if va < 0 { // guard the subtraction's rounding noise
			va = 0
		}
		mean[i] = mu
		spread[i] = math.Sqrt(va)
	}
}

// NumInputs returns the input width the model expects.
func (m *Model) NumInputs() int { return m.numInputs }

// Importance returns the fit-time out-of-bag permutation importance per
// input column. The probe matrix is unused: unlike sensitivity analysis,
// permutation importance needs the training targets, so it is computed
// once during Fit and stored with the model.
func (m *Model) Importance([][]float64) ([]float64, error) {
	if len(m.importance) != m.numInputs {
		return nil, errors.New("tree: model carries no importance scores")
	}
	out := make([]float64, m.numInputs)
	copy(out, m.importance)
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("tree: non-finite importance score")
		}
	}
	return out, nil
}
