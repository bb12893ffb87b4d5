// Package neural implements the paper's neural-network models (§3.2):
// feed-forward multilayer perceptrons trained by backpropagation, with the
// five SPSS Clementine training methods — Quick (NN-Q), Dynamic (NN-D),
// Multiple (NN-M), Prune (NN-P), Exhaustive Prune (NN-E) — plus the
// single-layer constant-learning-rate method (NN-S) the paper uses as the
// Ipek-et-al.-style baseline.
//
// Inputs and the target are expected pre-scaled to [0,1] (the dataset
// package's ForNN encoding). The output unit is sigmoidal, like
// Clementine's, which means predictions saturate outside the training
// target range — the mechanism behind the paper's observation that neural
// networks extrapolate poorly in chronological prediction.
//
// The hot path is written as batched, allocation-free kernels: each
// layer's weights live in one flat contiguous row-major slice with the
// bias fused as the last element of every row, and the forward/backward
// routines stream whole batches of samples through a reusable [Scratch].
// The kernels perform exactly the same floating-point operations in
// exactly the same order as the per-sample reference implementation (see
// reference_test.go), so the layout change is invisible to every seeded
// result.
package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a unit's transfer function. The paper (§3.2) lists
// linear, hard-limit, sigmoid and tan-sigmoid activations for hidden units.
type Activation int

const (
	// Sigmoid is the logistic function 1/(1+e^-x).
	Sigmoid Activation = iota
	// TanSigmoid is tanh(x).
	TanSigmoid
	// Linear is the identity.
	Linear
	// HardLimit is the Heaviside step (non-differentiable; usable for
	// inference-only layers, rejected by the trainer).
	HardLimit
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case TanSigmoid:
		return "tansig"
	case Linear:
		return "linear"
	case HardLimit:
		return "hardlim"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case TanSigmoid:
		return math.Tanh(x)
	case Linear:
		return x
	case HardLimit:
		if x >= 0 {
			return 1
		}
		return 0
	default:
		return x
	}
}

// applyAll applies the activation to a whole layer's raw sums in place.
// Per unit it evaluates the same expression as apply, so layer-at-a-time
// application is bit-identical to unit-at-a-time.
func (a Activation) applyAll(out []float64) {
	switch a {
	case Sigmoid:
		for i, v := range out {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case TanSigmoid:
		for i, v := range out {
			out[i] = math.Tanh(v)
		}
	case Linear:
	case HardLimit:
		for i, v := range out {
			if v >= 0 {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
	}
}

// derivFromOutput returns dσ/dx expressed in terms of the unit output.
func (a Activation) derivFromOutput(out float64) float64 {
	switch a {
	case Sigmoid:
		return out * (1 - out)
	case TanSigmoid:
		return 1 - out*out
	case Linear:
		return 1
	default:
		return 0
	}
}

// layer holds the weights of one fully connected layer as a single flat
// contiguous slice: unit i's incoming weights occupy the row
// w[i*(in+1) : (i+1)*(in+1)], whose last element is the unit's bias.
type layer struct {
	w   []float64
	in  int // fan-in (units of the previous layer)
	out int // units in this layer
	act Activation
}

// row returns unit i's weight row (aliasing the flat slice).
func (l *layer) row(i int) []float64 {
	s := l.in + 1
	return l.w[i*s : (i+1)*s : (i+1)*s]
}

// Network is a feed-forward multilayer perceptron.
type Network struct {
	sizes  []int // unit counts: input, hidden..., output
	layers []layer
	// frozenInput marks input indices whose first-layer weights are pinned
	// to zero (used by the pruning trainers to remove inputs in place).
	frozenInput []bool
	// nFrozen counts true entries of frozenInput so the update kernel can
	// skip the per-weight freeze check entirely on unpruned networks.
	nFrozen int
}

// NewNetwork creates a network with the given unit counts per layer
// (inputs first, output last), hidden activation hact and output
// activation oact, with weights initialized uniformly in ±1/√fanin.
func NewNetwork(sizes []int, hact, oact Activation, r *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("neural: need at least input and output layers")
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, errors.New("neural: layer sizes must be positive")
		}
	}
	n := &Network{
		sizes:       append([]int(nil), sizes...),
		frozenInput: make([]bool, sizes[0]),
	}
	for l := 1; l < len(sizes); l++ {
		act := hact
		if l == len(sizes)-1 {
			act = oact
		}
		fanin := sizes[l-1]
		scale := 1 / math.Sqrt(float64(fanin))
		// Row-major fill consumes the RNG in the same unit-then-weight
		// order as the ragged-slice layout did.
		w := make([]float64, sizes[l]*(fanin+1))
		for i := range w {
			w[i] = (2*r.Float64() - 1) * scale
		}
		n.layers = append(n.layers, layer{w: w, in: fanin, out: sizes[l], act: act})
	}
	return n, nil
}

// NumInputs returns the input dimensionality.
func (n *Network) NumInputs() int { return n.sizes[0] }

// NumOutputs returns the output dimensionality.
func (n *Network) NumOutputs() int { return n.sizes[len(n.sizes)-1] }

// Scratch holds the reusable buffers of the batched kernels: per-layer
// activations, backpropagated deltas and momentum velocities. A zero
// Scratch is ready to use; buffers grow on demand and are retained across
// calls, so steady-state forward/backward passes allocate nothing. A
// Scratch is not safe for concurrent use — obtain one per goroutine
// (training and batch prediction fetch one from the engine's worker-local
// store, so the pool owns its lifetime).
type Scratch struct {
	acts   [][]float64 // acts[li]: outputs of weight layer li
	deltas [][]float64 // deltas[li]: error terms of weight layer li
	vel    [][]float64 // vel[li]: momentum velocity, same shape as layer li's w
	batch  [][]float64 // batch[li]: batchWidth stacked activation rows of layer li
}

// NewScratch returns an empty scratch; equivalent to new(Scratch).
func NewScratch() *Scratch { return &Scratch{} }

// grow returns buf resliced to n elements, reallocating only when the
// capacity is insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensureForward sizes the activation buffers for n's forward kernel.
func (s *Scratch) ensureForward(n *Network) {
	if cap(s.acts) < len(n.layers) {
		s.acts = make([][]float64, len(n.layers))
	}
	s.acts = s.acts[:len(n.layers)]
	for li := range n.layers {
		s.acts[li] = grow(s.acts[li], n.layers[li].out)
	}
}

// ensureBatch sizes the stacked activation buffers for the batchWidth-wide
// forward kernel (in addition to the per-sample forward buffers).
func (s *Scratch) ensureBatch(n *Network) {
	s.ensureForward(n)
	if cap(s.batch) < len(n.layers) {
		s.batch = make([][]float64, len(n.layers))
	}
	s.batch = s.batch[:len(n.layers)]
	for li := range n.layers {
		s.batch[li] = grow(s.batch[li], batchWidth*n.layers[li].out)
	}
}

// ensureBackward sizes every buffer the backward kernel needs and zeroes
// the momentum velocities (each SGD run starts from zero velocity).
func (s *Scratch) ensureBackward(n *Network) {
	s.ensureForward(n)
	if cap(s.deltas) < len(n.layers) {
		s.deltas = make([][]float64, len(n.layers))
	}
	s.deltas = s.deltas[:len(n.layers)]
	if cap(s.vel) < len(n.layers) {
		s.vel = make([][]float64, len(n.layers))
	}
	s.vel = s.vel[:len(n.layers)]
	for li := range n.layers {
		s.deltas[li] = grow(s.deltas[li], n.layers[li].out)
		s.vel[li] = grow(s.vel[li], len(n.layers[li].w))
		clear(s.vel[li])
	}
}

// forwardScratch runs the forward kernel for one sample, leaving every
// layer's activations in s.acts and returning the output layer's slice
// (owned by s; copy before the next call if it must survive).
//
// Units are processed four at a time with independent accumulators so the
// four dot-product dependency chains overlap in the pipeline. Each unit's
// own accumulation order — bias first, then inputs in index order — is
// exactly the reference order, so the interleaving is bit-invisible.
func (n *Network) forwardScratch(x []float64, s *Scratch) []float64 {
	cur := x
	for li := range n.layers {
		l := &n.layers[li]
		out := s.acts[li]
		w := l.w
		in := l.in
		stride := in + 1
		i := 0
		for ; i+4 <= l.out; i += 4 {
			off := i * stride
			r0 := w[off : off+in : off+in]
			r1 := w[off+stride : off+stride+in : off+stride+in]
			r2 := w[off+2*stride : off+2*stride+in : off+2*stride+in]
			r3 := w[off+3*stride : off+3*stride+in : off+3*stride+in]
			s0 := w[off+in]
			s1 := w[off+stride+in]
			s2 := w[off+2*stride+in]
			s3 := w[off+3*stride+in]
			r0 = r0[:len(cur)]
			r1 = r1[:len(cur)]
			r2 = r2[:len(cur)]
			r3 = r3[:len(cur)]
			for j, v := range cur {
				s0 += r0[j] * v
				s1 += r1[j] * v
				s2 += r2[j] * v
				s3 += r3[j] * v
			}
			out[i] = s0
			out[i+1] = s1
			out[i+2] = s2
			out[i+3] = s3
		}
		for ; i < l.out; i++ {
			off := i * stride
			row := w[off : off+in : off+in]
			sum := w[off+in]
			row = row[:len(cur)]
			for j, v := range cur {
				sum += row[j] * v
			}
			out[i] = sum
		}
		l.act.applyAll(out)
		cur = out
	}
	return cur
}

// predict1Scratch is the allocation-free scalar forward pass.
func (n *Network) predict1Scratch(x []float64, s *Scratch) float64 {
	return n.forwardScratch(x, s)[0]
}

// batchWidth is how many samples the minibatch forward kernel streams
// through the network at once. Eight keeps the per-unit accumulators and
// sample-row pointers within the register file on 64-bit targets.
const batchWidth = 8

// predictBatch8 runs exactly batchWidth samples through the network at
// once and writes each sample's first output to dst[0..7]. For every unit
// the weight row is walked once while all eight samples accumulate in
// parallel; each sample's own accumulation order (bias first, then inputs
// in index order) is exactly the per-sample kernel's order, so batching is
// bit-invisible — it only amortises weight loads and overlaps the eight
// independent FP dependency chains. Call s.ensureBatch(n) first.
func (n *Network) predictBatch8(xs *[batchWidth][]float64, dst []float64, s *Scratch) {
	c0, c1, c2, c3 := xs[0], xs[1], xs[2], xs[3]
	c4, c5, c6, c7 := xs[4], xs[5], xs[6], xs[7]
	for li := range n.layers {
		l := &n.layers[li]
		w := l.w
		in := l.in
		stride := in + 1
		out := l.out
		ob := s.batch[li]
		o0 := ob[0*out : 1*out]
		o1 := ob[1*out : 2*out]
		o2 := ob[2*out : 3*out]
		o3 := ob[3*out : 4*out]
		o4 := ob[4*out : 5*out]
		o5 := ob[5*out : 6*out]
		o6 := ob[6*out : 7*out]
		o7 := ob[7*out : 8*out]
		c0, c1, c2, c3 = c0[:in], c1[:in], c2[:in], c3[:in]
		c4, c5, c6, c7 = c4[:in], c5[:in], c6[:in], c7[:in]
		for i := 0; i < out; i++ {
			off := i * stride
			row := w[off : off+in : off+in]
			bias := w[off+in]
			s0, s1, s2, s3 := bias, bias, bias, bias
			s4, s5, s6, s7 := bias, bias, bias, bias
			for j, rj := range row {
				s0 += rj * c0[j]
				s1 += rj * c1[j]
				s2 += rj * c2[j]
				s3 += rj * c3[j]
				s4 += rj * c4[j]
				s5 += rj * c5[j]
				s6 += rj * c6[j]
				s7 += rj * c7[j]
			}
			o0[i] = s0
			o1[i] = s1
			o2[i] = s2
			o3[i] = s3
			o4[i] = s4
			o5[i] = s5
			o6[i] = s6
			o7[i] = s7
		}
		l.act.applyAll(o0)
		l.act.applyAll(o1)
		l.act.applyAll(o2)
		l.act.applyAll(o3)
		l.act.applyAll(o4)
		l.act.applyAll(o5)
		l.act.applyAll(o6)
		l.act.applyAll(o7)
		c0, c1, c2, c3 = o0, o1, o2, o3
		c4, c5, c6, c7 = o4, o5, o6, o7
	}
	dst[0], dst[1], dst[2], dst[3] = c0[0], c1[0], c2[0], c3[0]
	dst[4], dst[5], dst[6], dst[7] = c4[0], c5[0], c6[0], c7[0]
}

// Forward computes the network output for input x.
func (n *Network) Forward(x []float64) []float64 {
	var s Scratch
	s.ensureForward(n)
	out := n.forwardScratch(x, &s)
	return append([]float64(nil), out...)
}

// Predict1 returns the single scalar output for x; it panics if the
// network has more than one output.
func (n *Network) Predict1(x []float64) float64 {
	if n.NumOutputs() != 1 {
		panic("neural: Predict1 on multi-output network")
	}
	return n.Forward(x)[0]
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	cp := &Network{
		sizes:       append([]int(nil), n.sizes...),
		frozenInput: append([]bool(nil), n.frozenInput...),
		nFrozen:     n.nFrozen,
	}
	cp.layers = make([]layer, len(n.layers))
	for li := range n.layers {
		l := n.layers[li]
		l.w = append([]float64(nil), l.w...)
		cp.layers[li] = l
	}
	return cp
}

// FreezeInput zeroes the first-layer weights from input j and pins them so
// subsequent training cannot resurrect the connection. It is how the
// pruning methods remove an input without changing the feature vector
// layout.
func (n *Network) FreezeInput(j int) error {
	if j < 0 || j >= n.sizes[0] {
		return fmt.Errorf("neural: input %d out of range", j)
	}
	if !n.frozenInput[j] {
		n.frozenInput[j] = true
		n.nFrozen++
	}
	l := &n.layers[0]
	stride := l.in + 1
	for i := 0; i < l.out; i++ {
		l.w[i*stride+j] = 0
	}
	return nil
}

// InputFrozen reports whether input j has been pruned.
func (n *Network) InputFrozen(j int) bool { return n.frozenInput[j] }

// RemoveHidden removes unit idx from hidden layer h (0-based among hidden
// layers), deleting its incoming and outgoing weights.
func (n *Network) RemoveHidden(h, idx int) error {
	nHidden := len(n.sizes) - 2
	if h < 0 || h >= nHidden {
		return fmt.Errorf("neural: hidden layer %d out of range", h)
	}
	li := h // layer index whose outputs are the hidden units
	if idx < 0 || idx >= n.sizes[h+1] {
		return fmt.Errorf("neural: unit %d out of range in hidden layer %d", idx, h)
	}
	if n.sizes[h+1] == 1 {
		return errors.New("neural: cannot remove the last unit of a hidden layer")
	}
	// Drop the unit's incoming weight row: one contiguous cut.
	l := &n.layers[li]
	stride := l.in + 1
	l.w = append(l.w[:idx*stride], l.w[(idx+1)*stride:]...)
	l.out--
	// Drop the corresponding input column of the next layer by compacting
	// in place (the write cursor never passes the read cursor).
	next := &n.layers[li+1]
	os := next.in + 1
	dst := 0
	for i := 0; i < next.out; i++ {
		row := next.w[i*os : (i+1)*os]
		for j, v := range row {
			if j == idx {
				continue
			}
			next.w[dst] = v
			dst++
		}
	}
	next.w = next.w[:dst]
	next.in--
	n.sizes[h+1]--
	return nil
}

// hiddenSaliency returns, for each unit of hidden layer h, the sum of
// absolute outgoing weights — the magnitude criterion used by the pruning
// trainers to pick removal victims.
func (n *Network) hiddenSaliency(h int) []float64 {
	out := make([]float64, n.sizes[h+1])
	next := &n.layers[h+1]
	stride := next.in + 1
	for i := 0; i < next.out; i++ {
		row := next.w[i*stride : (i+1)*stride]
		for j := 0; j < n.sizes[h+1]; j++ {
			out[j] += math.Abs(row[j])
		}
	}
	return out
}

// inputSaliency returns, for each input, the sum of absolute first-layer
// weights.
func (n *Network) inputSaliency() []float64 {
	out := make([]float64, n.sizes[0])
	l := &n.layers[0]
	stride := l.in + 1
	for i := 0; i < l.out; i++ {
		row := l.w[i*stride : (i+1)*stride]
		for j := 0; j < n.sizes[0]; j++ {
			out[j] += math.Abs(row[j])
		}
	}
	return out
}
