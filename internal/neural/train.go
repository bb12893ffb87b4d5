package neural

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"perfpred/internal/engine"
)

// sgdOptions configures one backpropagation run.
type sgdOptions struct {
	epochs   int
	lr       float64
	lrFinal  float64 // 0 → constant learning rate (NN-S behaviour)
	momentum float64
	// patience stops training after this many epochs without a training
	// MSE improvement of at least minDelta (0 disables early stopping).
	patience int
	minDelta float64
	// hook, if non-nil, observes epoch-granularity progress under label;
	// only its events read the label.
	hook  engine.Hook
	label string
}

// progressStride returns how often (in epochs) to emit progress events —
// roughly eight per run, never more than one per epoch.
func (o sgdOptions) progressStride() int {
	s := o.epochs / 8
	if s < 1 {
		s = 1
	}
	return s
}

// scratchKey identifies the neural kernels' slot in an engine worker's
// local store.
type scratchKey struct{}

// scratchFrom returns the current engine worker's reusable kernel scratch.
// Inside a pool the scratch lives as long as the worker, so every training
// run and batch prediction the worker executes shares one set of buffers;
// outside a pool each call gets a fresh scratch (correct, just unshared).
func scratchFrom(ctx context.Context) *Scratch {
	return engine.WorkerLocal(ctx, scratchKey{}, func() any { return new(Scratch) }).(*Scratch)
}

// trainSGD runs stochastic backpropagation with momentum on (x, y), where
// y holds each sample's targets flattened at stride NumOutputs. It
// shuffles per epoch with r and respects frozen inputs. Returns the final
// training MSE. The epoch loop checks ctx each iteration, so a hung or
// oversized training run (an NN-E prune, say) can be aborted promptly.
func (n *Network) trainSGD(ctx context.Context, x [][]float64, y []float64, opts sgdOptions, r *rand.Rand) (float64, error) {
	if len(x) == 0 {
		return 0, errors.New("neural: no training data")
	}
	nOut := n.NumOutputs()
	if len(y) != len(x)*nOut {
		return 0, errors.New("neural: x/y length mismatch")
	}
	for li := range n.layers {
		if n.layers[li].act == HardLimit {
			return 0, errors.New("neural: hard-limit activation is not trainable by backprop")
		}
	}
	if opts.epochs <= 0 {
		return 0, errors.New("neural: epochs must be positive")
	}
	if opts.lr <= 0 {
		return 0, errors.New("neural: learning rate must be positive")
	}

	s := scratchFrom(ctx)
	s.ensureBackward(n)

	if cap(s.perm) < len(x) {
		s.perm = make([]int, len(x))
	}
	perm := s.perm[:len(x)]
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	stale := 0
	mse := math.Inf(1)
	stride := opts.progressStride()
	kernelStart := time.Now()
	samples := int64(0)
	for epoch := 0; epoch < opts.epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return mse, err
		}
		if opts.hook != nil && epoch%stride == 0 {
			opts.hook.Emit(engine.Event{
				Kind: engine.EpochProgress, Label: opts.label, Fold: -1,
				Epoch: epoch, Epochs: opts.epochs,
			})
		}
		lr := opts.lr
		if opts.lrFinal > 0 && opts.epochs > 1 {
			// Geometric decay from lr to lrFinal across the run.
			t := float64(epoch) / float64(opts.epochs-1)
			lr = opts.lr * math.Pow(opts.lrFinal/opts.lr, t)
		}
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		sse := n.trainEpoch(x, y, perm, lr, opts.momentum, s)
		samples += int64(len(x))
		mse = sse / float64(len(x))
		if opts.patience > 0 {
			if mse < best-opts.minDelta {
				best = mse
				stale = 0
			} else {
				stale++
				if stale >= opts.patience {
					break
				}
			}
		}
	}
	if opts.hook != nil {
		opts.hook.Emit(engine.Event{
			Kind: engine.KernelTime, Label: "sgd " + opts.label, Fold: -1,
			Samples: samples, Elapsed: time.Since(kernelStart),
		})
	}
	return mse, nil
}

// trainEpoch is the batched backward kernel: it streams one epoch of
// per-sample stochastic updates through the scratch buffers in perm order
// and returns the epoch's summed pre-update squared error. Updates are
// applied sample by sample in exactly the reference order, so batching
// changes no numerical result.
func (n *Network) trainEpoch(x [][]float64, y []float64, perm []int, lr, momentum float64, s *Scratch) float64 {
	nOut := n.NumOutputs()
	sse := 0.0
	for _, i := range perm {
		sse += n.backpropSample(x[i], y[i*nOut:(i+1)*nOut], lr, momentum, s)
	}
	return sse
}

// backpropSample performs one stochastic update through the scratch
// buffers and returns the pre-update squared error of the sample.
func (n *Network) backpropSample(x, target []float64, lr, momentum float64, s *Scratch) float64 {
	out := n.forwardScratch(x, s)
	last := len(n.layers) - 1

	se := 0.0
	lastDeltas := s.deltas[last]
	lastAct := n.layers[last].act
	for i := range out {
		err := target[i] - out[i]
		se += err * err
		lastDeltas[i] = err * lastAct.derivFromOutput(out[i])
	}
	// Backpropagate deltas. Hidden units are handled four at a time: each
	// unit's sum still accumulates over k in ascending order (the reference
	// order), but the four independent accumulators overlap their FP
	// dependency chains and turn the strided weight reads into contiguous
	// four-wide loads.
	for li := last - 1; li >= 0; li-- {
		l := &n.layers[li]
		next := &n.layers[li+1]
		nw := next.w
		nstride := next.in + 1
		nout := next.out
		cur := s.acts[li]
		deltas := s.deltas[li]
		nextDeltas := s.deltas[li+1][:nout]
		i := 0
		for ; i+4 <= l.out; i += 4 {
			var s0, s1, s2, s3 float64
			for k, d := range nextDeltas {
				base := k*nstride + i
				q := nw[base : base+4 : base+4]
				s0 += q[0] * d
				s1 += q[1] * d
				s2 += q[2] * d
				s3 += q[3] * d
			}
			deltas[i] = s0 * l.act.derivFromOutput(cur[i])
			deltas[i+1] = s1 * l.act.derivFromOutput(cur[i+1])
			deltas[i+2] = s2 * l.act.derivFromOutput(cur[i+2])
			deltas[i+3] = s3 * l.act.derivFromOutput(cur[i+3])
		}
		for ; i < l.out; i++ {
			sum := 0.0
			for k, d := range nextDeltas {
				sum += nw[k*nstride+i] * d
			}
			deltas[i] = sum * l.act.derivFromOutput(cur[i])
		}
	}
	// Weight updates with momentum. Layer 0 additionally respects the
	// pruning mask; the frozen branch is skipped entirely on unpruned
	// networks.
	for li := range n.layers {
		l := &n.layers[li]
		in := x
		if li > 0 {
			in = s.acts[li-1]
		}
		in = in[:l.in]
		stride := l.in + 1
		w := l.w
		vel := s.vel[li]
		deltas := s.deltas[li]
		checkFrozen := li == 0 && n.nFrozen > 0
		for i := 0; i < l.out; i++ {
			d := deltas[i]
			off := i * stride
			rw := w[off : off+l.in : off+l.in][:len(in)]
			vw := vel[off : off+l.in : off+l.in][:len(in)]
			if checkFrozen {
				frozen := n.frozenInput[:l.in][:len(in)]
				for j, a := range in {
					if frozen[j] {
						vw[j] = 0
						continue
					}
					grad := d * a
					v := momentum*vw[j] + lr*grad
					vw[j] = v
					rw[j] += v
				}
			} else {
				for j, a := range in {
					grad := d * a
					v := momentum*vw[j] + lr*grad
					vw[j] = v
					rw[j] += v
				}
			}
			// Bias input is 1.
			v := momentum*vel[off+l.in] + lr*d
			vel[off+l.in] = v
			w[off+l.in] += v
		}
	}
	return se
}

// mseOn returns the network's MSE over a dataset with scalar targets,
// streaming every row through s (nil s uses a temporary scratch).
func (n *Network) mseOn(x [][]float64, y []float64, s *Scratch) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	if s == nil {
		s = new(Scratch)
	}
	s.ensureBatch(n)
	// Full blocks go through the minibatch forward kernel; per-sample
	// squared errors are still summed in sample order, so the total is
	// bit-identical to the sequential pass.
	var xs [batchWidth][]float64
	var preds [batchWidth]float64
	sum := 0.0
	i := 0
	for ; i+batchWidth <= len(x); i += batchWidth {
		copy(xs[:], x[i:i+batchWidth])
		n.predictBatch8(&xs, preds[:], s)
		for b, p := range preds {
			d := p - y[i+b]
			sum += d * d
		}
	}
	for ; i < len(x); i++ {
		d := n.predict1Scratch(x[i], s) - y[i]
		sum += d * d
	}
	return sum / float64(len(x))
}
