package neural

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"perfpred/internal/engine"
)

// Method selects the Clementine training strategy.
type Method int

const (
	// Quick (NN-Q) trains a single heuristically sized hidden layer with a
	// decaying learning rate.
	Quick Method = iota
	// Dynamic (NN-D) grows the hidden layer while the held-out error keeps
	// improving.
	Dynamic
	// Multiple (NN-M) trains several topologies concurrently and keeps the
	// one with the best held-out error.
	Multiple
	// Prune (NN-P) starts from a large network and removes the weakest
	// hidden units and inputs while the held-out error does not degrade.
	Prune
	// ExhaustivePrune (NN-E) is Prune with a larger starting topology,
	// multiple restarts, longer training and a stricter pruning tolerance —
	// "the slowest of all, but often yields the best results" (paper §3.2).
	ExhaustivePrune
	// Single (NN-S) is the paper's modified Quick: one smaller hidden
	// layer and a constant learning rate, similar to the model of
	// Ipek et al. Fast to train.
	Single
)

// String returns the paper's short name for the method.
func (m Method) String() string {
	switch m {
	case Quick:
		return "NN-Q"
	case Dynamic:
		return "NN-D"
	case Multiple:
		return "NN-M"
	case Prune:
		return "NN-P"
	case ExhaustivePrune:
		return "NN-E"
	case Single:
		return "NN-S"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all six training methods in the paper's Figure 7/8 order
// (NN-S appended; the figures show Q, D, M, P, E).
func Methods() []Method {
	return []Method{Quick, Dynamic, Multiple, Prune, ExhaustivePrune, Single}
}

// Config configures Train.
type Config struct {
	Method Method
	// Seed drives all stochastic choices (weight init, shuffling, splits).
	Seed int64
	// Workers bounds the topology-search parallelism. Zero means
	// runtime.GOMAXPROCS(0).
	Workers int
	// EpochScale multiplies every method's default epoch counts; zero
	// means 1.0. Tests use small values to stay fast.
	EpochScale float64
	// Hook, if non-nil, observes topology-search task events and
	// epoch-granularity training progress. Observability only; never
	// affects results.
	Hook engine.Hook
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) epochs(base int) int {
	s := c.EpochScale
	if s <= 0 {
		s = 1
	}
	e := int(float64(base) * s)
	if e < 10 {
		e = 10
	}
	return e
}

// Model is a trained neural-network regressor.
type Model struct {
	net    *Network
	method Method
	valMSE float64
}

// NumInputs returns the width of the input rows the model expects —
// registry loaders use it to cross-check a deserialized model against
// its encoder.
func (m *Model) NumInputs() int { return m.net.NumInputs() }

// PredictAllInto is the allocation-free batch predictor: it writes the
// prediction for each row of x into dst (which must have len(x) elements)
// and returns dst. A nil scratch uses a temporary; passing a reused
// Scratch makes steady-state calls allocate nothing.
func (m *Model) PredictAllInto(dst []float64, x [][]float64, s *Scratch) []float64 {
	if len(dst) != len(x) {
		panic("neural: PredictAllInto dst/x length mismatch")
	}
	if s == nil {
		s = new(Scratch)
	}
	s.ensureBatch(m.net)
	// Full blocks go through the minibatch kernel; the tail is scored by
	// the per-sample kernel. Both produce bit-identical outputs.
	var xs [batchWidth][]float64
	i := 0
	for ; i+batchWidth <= len(x); i += batchWidth {
		copy(xs[:], x[i:i+batchWidth])
		m.net.predictBatch8(&xs, dst[i:i+batchWidth], s)
	}
	for ; i < len(x); i++ {
		dst[i] = m.net.predict1Scratch(x[i], s)
	}
	return dst
}

// Train fits a neural network to x (rows of [0,1]-scaled features) and
// scalar targets y (also [0,1]-scaled) using the configured method.
// Cancelling ctx aborts the epoch loops promptly with ctx's error.
func Train(ctx context.Context, x [][]float64, y []float64, cfg Config) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, errors.New("neural: no training data")
	}
	if len(x) != len(y) {
		return nil, errors.New("neural: x/y length mismatch")
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("neural: zero-width inputs")
	}
	for _, row := range x {
		if len(row) != p {
			return nil, errors.New("neural: ragged input matrix")
		}
	}
	if len(x) < 4 {
		return nil, errors.New("neural: need at least 4 records")
	}

	// Clementine-style half split for topology decisions (paper §3.3).
	perm := scratchFrom(ctx).reseed(cfg.Seed).Perm(len(x))
	h := len(x) / 2
	xtr, ytr := gather(x, y, perm[:h])
	xval, yval := gather(x, y, perm[h:])

	switch cfg.Method {
	case Quick:
		return trainQuick(ctx, x, y, xtr, ytr, xval, yval, cfg)
	case Single:
		return trainSingle(ctx, x, y, cfg)
	case Dynamic:
		return trainDynamic(ctx, x, y, xtr, ytr, xval, yval, cfg)
	case Multiple:
		return trainMultiple(ctx, x, y, xtr, ytr, xval, yval, cfg)
	case Prune:
		return trainPrune(ctx, x, y, xtr, ytr, xval, yval, cfg, false)
	case ExhaustivePrune:
		return trainPrune(ctx, x, y, xtr, ytr, xval, yval, cfg, true)
	default:
		return nil, fmt.Errorf("neural: unknown method %v", cfg.Method)
	}
}

func gather(x [][]float64, y []float64, idx []int) ([][]float64, []float64) {
	xs := make([][]float64, len(idx))
	ys := make([]float64, len(idx))
	for k, i := range idx {
		xs[k] = x[i]
		ys[k] = y[i]
	}
	return xs, ys
}

// finalPolish retrains net on the full dataset from its current weights,
// shuffling with stream i of the fit's seed.
func finalPolish(ctx context.Context, net *Network, x [][]float64, y []float64, cfg Config, epochs, stream int) error {
	_, err := net.trainSGD(ctx, x, y, sgdOptions{
		epochs:   cfg.epochs(epochs),
		lr:       0.25,
		lrFinal:  0.02,
		momentum: 0.9,
		patience: 60,
		minDelta: 1e-7,
		hook:     cfg.Hook,
		label:    cfg.Hook.Label("%v polish", cfg.Method),
	}, scratchFrom(ctx).subRand(cfg.Seed, stream))
	return err
}

func trainQuick(ctx context.Context, x [][]float64, y []float64, xtr [][]float64, ytr []float64, xval [][]float64, yval []float64, cfg Config) (*Model, error) {
	p := len(x[0])
	h := max(3, (p+1)/2)
	s := scratchFrom(ctx)
	net, err := NewNetwork([]int{p, h, 1}, Sigmoid, Sigmoid, s.subRand(cfg.Seed, 1))
	if err != nil {
		return nil, err
	}
	_, err = net.trainSGD(ctx, xtr, ytr, sgdOptions{
		epochs:   cfg.epochs(300),
		lr:       0.4,
		lrFinal:  0.05,
		momentum: 0.9,
		patience: 50,
		minDelta: 1e-7,
		hook:     cfg.Hook,
		label:    "NN-Q",
	}, s.subRand(cfg.Seed, 2))
	if err != nil {
		return nil, err
	}
	val := net.mseOn(xval, yval, s)
	if err := finalPolish(ctx, net, x, y, cfg, 200, 3); err != nil {
		return nil, err
	}
	return &Model{net: net, method: Quick, valMSE: val}, nil
}

func trainSingle(ctx context.Context, x [][]float64, y []float64, cfg Config) (*Model, error) {
	p := len(x[0])
	h := max(2, (p+2)/4)
	s := scratchFrom(ctx)
	net, err := NewNetwork([]int{p, h, 1}, Sigmoid, Sigmoid, s.subRand(cfg.Seed, 4))
	if err != nil {
		return nil, err
	}
	// Constant learning rate, one small hidden layer (paper §3.2, NN-S).
	_, err = net.trainSGD(ctx, x, y, sgdOptions{
		epochs:   cfg.epochs(250),
		lr:       0.2,
		momentum: 0.5,
		patience: 40,
		minDelta: 1e-7,
		hook:     cfg.Hook,
		label:    "NN-S",
	}, s.subRand(cfg.Seed, 5))
	if err != nil {
		return nil, err
	}
	return &Model{net: net, method: Single, valMSE: math.NaN()}, nil
}

func trainDynamic(ctx context.Context, x [][]float64, y []float64, xtr [][]float64, ytr []float64, xval [][]float64, yval []float64, cfg Config) (*Model, error) {
	p := len(x[0])
	grow := max(1, p/8)
	s := scratchFrom(ctx)
	bestVal := math.Inf(1)
	var best *Network
	h := 2
	for step := 0; h <= 2*p && step < 12; step++ {
		net, err := NewNetwork([]int{p, h, 1}, Sigmoid, Sigmoid, s.subRand(cfg.Seed, 10+step))
		if err != nil {
			return nil, err
		}
		_, err = net.trainSGD(ctx, xtr, ytr, sgdOptions{
			epochs:   cfg.epochs(150),
			lr:       0.35,
			lrFinal:  0.05,
			momentum: 0.9,
			patience: 30,
			minDelta: 1e-7,
			hook:     cfg.Hook,
			label:    cfg.Hook.Label("NN-D grow %d", step),
		}, s.subRand(cfg.Seed, 30+step))
		if err != nil {
			return nil, err
		}
		val := net.mseOn(xval, yval, s)
		if val < bestVal*(1-1e-4) {
			bestVal = val
			best = net
			h += grow
			continue
		}
		break // growth stopped paying off
	}
	if best == nil {
		return nil, errors.New("neural: dynamic growth failed to produce a network")
	}
	if err := finalPolish(ctx, best, x, y, cfg, 200, 50); err != nil {
		return nil, err
	}
	return &Model{net: best, method: Dynamic, valMSE: bestVal}, nil
}

func trainMultiple(ctx context.Context, x [][]float64, y []float64, xtr [][]float64, ytr []float64, xval [][]float64, yval []float64, cfg Config) (*Model, error) {
	p := len(x[0])
	topos := [][]int{
		{p, max(2, p/4), 1},
		{p, max(3, p/2), 1},
		{p, p, 1},
		{p, max(3, p/2), max(2, p/4), 1},
		{p, p, max(3, p/2), 1},
	}
	type result struct {
		net *Network
		val float64
	}
	results := make([]result, len(topos))
	tasks := make([]engine.Task, len(topos))
	for i := range topos {
		i := i
		label := cfg.Hook.Label("NN-M topo %d", i)
		tasks[i] = engine.Task{
			Label: label,
			Model: "NN-M",
			Fold:  -1,
			Run: func(ctx context.Context) error {
				s := scratchFrom(ctx)
				net, err := NewNetwork(topos[i], Sigmoid, Sigmoid, s.subRand(cfg.Seed, 100+i))
				if err != nil {
					return err
				}
				_, err = net.trainSGD(ctx, xtr, ytr, sgdOptions{
					epochs:   cfg.epochs(250),
					lr:       0.35,
					lrFinal:  0.04,
					momentum: 0.9,
					patience: 40,
					minDelta: 1e-7,
					hook:     cfg.Hook,
					label:    label,
				}, s.subRand(cfg.Seed, 200+i))
				if err != nil {
					return err
				}
				results[i] = result{net: net, val: net.mseOn(xval, yval, s)}
				return nil
			},
		}
	}
	if err := engine.Run(ctx, engine.Options{Workers: cfg.workers(), Hook: cfg.Hook}, tasks...); err != nil {
		return nil, err
	}
	bestVal := math.Inf(1)
	var best *Network
	for _, res := range results {
		if res.val < bestVal {
			bestVal = res.val
			best = res.net
		}
	}
	if best == nil {
		return nil, errors.New("neural: multiple-topology search produced no network")
	}
	if err := finalPolish(ctx, best, x, y, cfg, 200, 300); err != nil {
		return nil, err
	}
	return &Model{net: best, method: Multiple, valMSE: bestVal}, nil
}

// pruneSchedule is NN-P's or NN-E's search budget on p inputs.
type pruneSchedule struct {
	method                     Method
	restarts, startH           int
	trainEpochs, retrainEpochs int
	maxPrunes, polish          int
	tol                        float64 // accept a prune if val MSE stays within tol × the best
}

func newPruneSchedule(p int, exhaustive bool) pruneSchedule {
	if exhaustive {
		return pruneSchedule{method: ExhaustivePrune, restarts: 3, startH: p + max(2, p/2),
			trainEpochs: 450, retrainEpochs: 150, maxPrunes: p, polish: 300, tol: 1.01}
	}
	return pruneSchedule{method: Prune, restarts: 1, startH: p,
		trainEpochs: 250, retrainEpochs: 80, maxPrunes: max(1, p/2), polish: 150, tol: 1.05}
}

// trainPrune implements NN-P, and NN-E when exhaustive is true. The
// schedule is assigned once, so the restart closures copy it and it
// stays on the stack.
func trainPrune(ctx context.Context, x [][]float64, y []float64, xtr [][]float64, ytr []float64, xval [][]float64, yval []float64, cfg Config, exhaustive bool) (*Model, error) {
	p := len(x[0])
	sc := newPruneSchedule(p, exhaustive)

	type result struct {
		net *Network
		val float64
	}
	results := make([]result, sc.restarts)
	tasks := make([]engine.Task, sc.restarts)
	for ri := 0; ri < sc.restarts; ri++ {
		ri := ri
		label := cfg.Hook.Label("%v restart %d", sc.method, ri)
		tasks[ri] = engine.Task{
			Label: label,
			Model: sc.method.String(),
			Fold:  -1,
			Run: func(ctx context.Context) error {
				s := scratchFrom(ctx)
				seedBase := 1000 * (ri + 1)
				net, err := NewNetwork([]int{p, sc.startH, 1}, Sigmoid, Sigmoid, s.subRand(cfg.Seed, seedBase))
				if err != nil {
					return err
				}
				_, err = net.trainSGD(ctx, xtr, ytr, sgdOptions{
					epochs:   cfg.epochs(sc.trainEpochs),
					lr:       0.35,
					lrFinal:  0.03,
					momentum: 0.9,
					patience: 50,
					minDelta: 1e-7,
					hook:     cfg.Hook,
					label:    label,
				}, s.subRand(cfg.Seed, seedBase+1))
				if err != nil {
					return err
				}
				val := net.mseOn(xval, yval, s)

				// Alternate hidden-unit and input pruning while the held-out
				// error stays within tolerance. Each candidate is a copy of
				// net in the spare network; an accepted one swaps places
				// with net, so the old net becomes the next spare.
				var spare *Network
				for prune := 0; prune < sc.maxPrunes; prune++ {
					spare = net.cloneInto(spare)
					cand := spare
					pruned := false
					if cand.sizes[1] > 2 {
						s.sal = cand.hiddenSaliency(0, s.sal)
						victim := argmin(s.sal)
						if err := cand.RemoveHidden(0, victim); err == nil {
							pruned = true
						}
					}
					if !pruned {
						// Fall back to input pruning.
						s.sal = cand.inputSaliency(s.sal)
						victim, ok := weakestUnfrozen(cand, s.sal)
						if !ok {
							break
						}
						if err := cand.FreezeInput(victim); err != nil {
							break
						}
					}
					_, err := cand.trainSGD(ctx, xtr, ytr, sgdOptions{
						epochs:   cfg.epochs(sc.retrainEpochs),
						lr:       0.2,
						lrFinal:  0.03,
						momentum: 0.9,
						patience: 25,
						minDelta: 1e-7,
						hook:     cfg.Hook,
						label:    cfg.Hook.Label("%v restart %d prune %d", sc.method, ri, prune),
					}, s.subRand(cfg.Seed, seedBase+10+prune))
					if err != nil {
						return err
					}
					cval := cand.mseOn(xval, yval, s)
					if cval <= val*sc.tol {
						net, spare, val = cand, net, math.Min(cval, val)
						continue
					}
					break
				}
				// Exhaustive mode also prunes weak inputs after the unit sweep.
				if exhaustive {
					for prune := 0; prune < p/2; prune++ {
						spare = net.cloneInto(spare)
						cand := spare
						s.sal = cand.inputSaliency(s.sal)
						victim, ok := weakestUnfrozen(cand, s.sal)
						if !ok {
							break
						}
						if err := cand.FreezeInput(victim); err != nil {
							break
						}
						_, err := cand.trainSGD(ctx, xtr, ytr, sgdOptions{
							epochs:   cfg.epochs(sc.retrainEpochs),
							lr:       0.15,
							lrFinal:  0.03,
							momentum: 0.9,
							patience: 25,
							minDelta: 1e-7,
							hook:     cfg.Hook,
							label:    cfg.Hook.Label("%v restart %d input-prune %d", sc.method, ri, prune),
						}, s.subRand(cfg.Seed, seedBase+500+prune))
						if err != nil {
							return err
						}
						cval := cand.mseOn(xval, yval, s)
						if cval <= val*sc.tol {
							net, spare, val = cand, net, math.Min(cval, val)
							continue
						}
						break
					}
				}
				results[ri] = result{net: net, val: val}
				return nil
			},
		}
	}
	if err := engine.Run(ctx, engine.Options{Workers: cfg.workers(), Hook: cfg.Hook}, tasks...); err != nil {
		return nil, err
	}

	bestVal := math.Inf(1)
	var best *Network
	for _, res := range results {
		if res.val < bestVal {
			bestVal = res.val
			best = res.net
		}
	}
	if best == nil {
		return nil, errors.New("neural: pruning search produced no network")
	}
	if err := finalPolish(ctx, best, x, y, cfg, sc.polish, 9999); err != nil {
		return nil, err
	}
	return &Model{net: best, method: sc.method, valMSE: bestVal}, nil
}

func weakestUnfrozen(n *Network, sal []float64) (int, bool) {
	best, bestSal := -1, math.Inf(1)
	frozen := 0
	for j, s := range sal {
		if n.InputFrozen(j) {
			frozen++
			continue
		}
		if s < bestSal {
			best, bestSal = j, s
		}
	}
	// Keep at least two live inputs.
	if best < 0 || len(sal)-frozen <= 2 {
		return 0, false
	}
	return best, true
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
