// Package tree implements bagged CART regression trees (TREE-B), the
// tree-ensemble surrogate family. Each tree is grown on a deterministic
// per-seed bootstrap resample with greedy variance-reduction splits, and
// feature importance comes from out-of-bag permutation: how much each
// tree's OOB error degrades when one feature's OOB values are shuffled.
//
// A tree sorts each feature's bootstrap rows once, by (value, row
// index), and every split stably partitions those orders, so a node
// scans its rows in sorted order without sorting them again. The
// sequences are the ones a per-node sort would produce, so the splits
// are too.
//
// Like every family in the registry, fits are bit-identical for a fixed
// seed regardless of worker count: each tree derives a private RNG stream
// from (seed, tree index), trees train as independent engine tasks that
// read their tree index from the engine, and all cross-tree aggregation
// happens in tree order after the pool drains.
package tree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"

	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// Every tree grows to at most maxDepth levels and keeps at least minLeaf
// rows in each leaf, so it has at most maxNodes nodes.
const (
	maxDepth = 8
	minLeaf  = 2
	maxNodes = 1<<(maxDepth+1) - 1
)

// A child index must fit node's uint16 Left and Right.
const _ uint16 = maxNodes - 1

// Config configures Fit.
type Config struct {
	// Trees is the ensemble size (0 = 64).
	Trees int
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
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// node is one flat-array tree node, 24 bytes. Internal nodes route row r
// left when r[Feature] <= Threshold; leaves (Feature == -1) predict
// Value. The JSON names are the artifact's; wireNode writes them in the
// artifact's order.
type node struct {
	Feature   int32   `json:"f"`
	Left      uint16  `json:"l,omitempty"`
	Right     uint16  `json:"r,omitempty"`
	Threshold float64 `json:"t,omitempty"`
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
	if p > math.MaxInt32 {
		return nil, errors.New("tree: input width overflows a node's feature index")
	}
	if n > math.MaxInt32 {
		return nil, errors.New("tree: record count overflows a row index")
	}
	for _, row := range x {
		if len(row) != p {
			return nil, errors.New("tree: ragged input matrix")
		}
	}
	if n < 4 {
		return nil, errors.New("tree: need at least 4 records")
	}

	// Tree t is task t, and every task shares one Run func, which writes
	// the tree's raw importance into row t of one matrix.
	trees := make([][]node, cfg.Trees)
	perTreeImp := make([]float64, cfg.Trees*p)
	tasks := make([]engine.Task, cfg.Trees)
	run := func(ctx context.Context, t int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		s := scratchFrom(ctx, x, y)
		trees[t] = s.grow(stat.DeriveSeed(cfg.Seed, 1000+t), perTreeImp[t*p:(t+1)*p])
		if cfg.Hook != nil {
			cfg.Hook.Emit(engine.Event{
				Kind: engine.KernelTime, Label: tasks[t].Label,
				Model: "TREE-B", Fold: -1,
				Samples: int64(n), Elapsed: time.Since(start),
			})
		}
		return nil
	}
	for t := range tasks {
		tasks[t] = engine.Task{Label: cfg.Hook.Label("cart tree %d", t), Model: "TREE-B", Fold: -1, Run: run}
	}
	if err := engine.Run(ctx, engine.Options{Workers: cfg.Workers, Hook: cfg.Hook}, tasks...); err != nil {
		return nil, err
	}

	// Cross-tree aggregation in tree order, after the pool drains, so the
	// summation order never depends on scheduling.
	imp := make([]float64, p)
	for t := 0; t < cfg.Trees; t++ {
		for j, v := range perTreeImp[t*p : (t+1)*p] {
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

// scratchKey identifies the tree scratch's slot in an engine worker's
// local store.
type scratchKey struct{}

// scratch is one engine worker's state for growing trees: the builder's
// buffers (the bootstrap and its per-feature orders among them), the
// generator and the OOB buffers. Fit runs its trees on its own pool, so
// a worker's scratch serves the trees of one fit, and every tree it
// grows resets what it reads: the bootstrap is redrawn and presorted,
// the node array truncated, inBag cleared and the generator reseeded. A
// tree keeps only its exact-size node slice; its importance is a row of
// the fit's trees × p matrix.
type scratch struct {
	b     builder
	r     *rand.Rand
	inBag []bool
	buf   []float64 // one OOB row with a feature permuted
	vals  []float64 // one feature's permuted OOB values
}

// scratchFrom returns the current worker's tree scratch, sized for x and
// y. Outside a pool each call gets a fresh scratch.
func scratchFrom(ctx context.Context, x [][]float64, y []float64) *scratch {
	s := engine.WorkerLocal(ctx, scratchKey{}, func() any { return new(scratch) }).(*scratch)
	n, p := len(x), len(x[0])
	if len(s.b.idx) != n {
		// A leaf holds at least one row, and the depth bound caps the
		// node count, so growing a tree never reallocates nodes.
		s.b.nodes = make([]node, 0, min(2*n-1, maxNodes))
		s.b.idx = make([]int32, n)
		s.b.right = make([]int32, n)
		s.inBag = make([]bool, n)
		s.vals = make([]float64, n)
	}
	if len(s.b.order) != p*n {
		s.b.order = make([]int32, p*n)
	}
	if len(s.buf) != p {
		s.buf = make([]float64, p)
	}
	s.b.x, s.b.y = x, y
	return s
}

// grow fits one tree on the bootstrap drawn from treeSeed, writes its raw
// OOB permutation importance into imp (len p, zeroed) and returns its
// nodes.
func (s *scratch) grow(treeSeed int64, imp []float64) []node {
	s.r = stat.Reseed(s.r, treeSeed)
	n := len(s.b.idx)
	clear(s.inBag)
	for i := range s.b.idx {
		j := s.r.Intn(n)
		s.b.idx[i] = int32(j)
		s.inBag[j] = true
	}
	s.b.presort()
	s.b.nodes = s.b.nodes[:0]
	s.b.build(0, n, 0)
	s.oobImportance(treeSeed, imp)
	return slices.Clone(s.b.nodes)
}

// oobImportance measures permutation importance on the tree just grown,
// over its out-of-bag rows: the increase in OOB SSE when one feature's
// OOB values are shuffled. Negative increases (noise) clamp to zero. The
// permutation of feature j draws from the derived stream (treeSeed, 1+j),
// so it is independent of how the tree was grown and of every other
// feature; the generator is reseeded onto that stream once the bootstrap
// is drawn. The builder's partition buffer, idle once the tree is grown,
// collects the out-of-bag row indices. Increases are written into imp,
// which arrives zeroed.
func (s *scratch) oobImportance(treeSeed int64, imp []float64) {
	x, y, nodes := s.b.x, s.b.y, s.b.nodes
	p := len(x[0])
	oob := s.b.right[:0]
	for i, in := range s.inBag {
		if !in {
			oob = append(oob, int32(i))
		}
	}
	if len(oob) < 2 {
		return
	}
	base := 0.0
	for _, i := range oob {
		d := predictTree(nodes, x[i]) - y[i]
		base += d * d
	}
	buf, vals := s.buf, s.vals[:len(oob)]
	for j := 0; j < p; j++ {
		s.r.Seed(stat.DeriveSeed(treeSeed, 1+j))
		for k, i := range oob {
			vals[k] = x[i][j]
		}
		s.r.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
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
}

// builder grows one tree into a flat node array. idx holds the
// bootstrap's row indices (they may repeat) and order, a p × n matrix,
// the same rows once per feature: row j lists them in (x[r][j], r)
// order. Every split stably partitions idx and each feature's order by
// the same predicate, so a node's rows are one segment [lo, hi) of idx
// and of every feature's order, and that segment stays sorted. right
// holds the right-hand rows while a segment is partitioned. The buffers
// belong to the worker's scratch, which sizes them for the training set.
type builder struct {
	x     [][]float64
	y     []float64
	nodes []node
	idx   []int32
	order []int32
	right []int32
}

// presort fills order from idx: feature j's row is the bootstrap sorted
// by (x[r][j], r). That order is total up to duplicate rows, which are
// interchangeable, so it is unique whatever algorithm produces it, and
// partitioning it stably leaves each node the sequence a per-node sort
// of its rows would produce.
func (b *builder) presort() {
	n := len(b.idx)
	for j := range len(b.x[0]) {
		ord := b.order[j*n : (j+1)*n]
		copy(ord, b.idx)
		slices.SortFunc(ord, func(a, c int32) int {
			va, vc := b.x[a][j], b.x[c][j]
			switch {
			case va < vc:
				return -1
			case va > vc:
				return 1
			}
			return int(a) - int(c)
		})
	}
}

// build appends the subtree over the segment [lo, hi) and returns its
// root's flat index. The split partitions idx stably in place — left
// rows first, each side in its original order — so the children sum
// their targets in the same order a copied partition would.
func (b *builder) build(lo, hi, depth int) uint16 {
	idx := b.idx[lo:hi]
	sum, sum2 := 0.0, 0.0
	for _, i := range idx {
		sum += b.y[i]
		sum2 += b.y[i] * b.y[i]
	}
	mean := sum / float64(len(idx))
	sse := sum2 - sum*sum/float64(len(idx))
	id := uint16(len(b.nodes))
	b.nodes = append(b.nodes, node{Feature: -1, Value: mean})
	if depth >= maxDepth || len(idx) < 2*minLeaf || sse <= 0 {
		return id
	}
	feat, thr, ok := b.bestSplit(lo, hi, sum, sum2)
	if !ok {
		return id
	}
	nl := b.partition(idx, feat, thr)
	n := len(b.idx)
	for j := range len(b.x[0]) {
		// The split feature's own segment is sorted by the value the
		// predicate tests, so its left rows already lead.
		if j != feat {
			b.partition(b.order[j*n+lo:j*n+hi], feat, thr)
		}
	}
	l := b.build(lo, lo+nl, depth+1)
	r := b.build(lo+nl, hi, depth+1)
	b.nodes[id] = node{Feature: int32(feat), Left: l, Right: r, Threshold: thr, Value: mean}
	return id
}

// partition stably moves the rows of seg with x[r][feat] <= thr ahead of
// the rest and returns their count.
func (b *builder) partition(seg []int32, feat int, thr float64) int {
	nl, right := 0, b.right[:0]
	for _, r := range seg {
		if b.x[r][feat] <= thr {
			seg[nl] = r
			nl++
		} else {
			right = append(right, r)
		}
	}
	copy(seg[nl:], right)
	return nl
}

// bestSplit finds the (feature, threshold) pair with the largest SSE
// reduction over the node's segment [lo, hi), scanning each feature's
// presorted rows. Features are scanned in ascending index order and each
// feature's thresholds in ascending value order, and a candidate must
// strictly beat the incumbent, so ties deterministically resolve to the
// lowest feature and lowest threshold.
func (b *builder) bestSplit(lo, hi int, sum, sum2 float64) (feat int, thr float64, ok bool) {
	n := hi - lo
	parentSSE := sum2 - sum*sum/float64(n)
	bestGain := 0.0
	for j := 0; j < len(b.x[0]); j++ {
		order := b.order[j*len(b.idx)+lo : j*len(b.idx)+hi]
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
			if nl < minLeaf || nr < minLeaf {
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
	i := uint16(0)
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
