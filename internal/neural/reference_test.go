package neural

// This file retains the pre-batching per-sample implementation — ragged
// [][]float64 weight rows, fresh buffers per call — as an executable
// specification. The equivalence tests assert that the flat, batched,
// allocation-free kernels produce bit-identical weights and predictions,
// which is the contract that lets the kernels ship without regenerating a
// single golden fixture.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

// refLayer mirrors the pre-refactor ragged layer: one weight row per
// unit, bias stored in the row's last slot.
type refLayer struct {
	w   [][]float64
	act Activation
}

// refNetwork is the retained per-sample reference implementation.
type refNetwork struct {
	sizes       []int
	layers      []refLayer
	frozenInput []bool
}

// refNew builds a reference network drawing initial weights from r in the
// pre-refactor order: layer by layer, unit by unit, inputs then bias.
func refNew(sizes []int, hact, oact Activation, r *rand.Rand) *refNetwork {
	n := &refNetwork{
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
		w := make([][]float64, sizes[l])
		for i := range w {
			w[i] = make([]float64, fanin+1)
			for j := range w[i] {
				w[i][j] = (2*r.Float64() - 1) * scale
			}
		}
		n.layers = append(n.layers, refLayer{w: w, act: act})
	}
	return n
}

// refFromNetwork copies a flat-layout network into ragged reference form.
func refFromNetwork(n *Network) *refNetwork {
	rn := &refNetwork{
		sizes:       append([]int(nil), n.sizes...),
		frozenInput: append([]bool(nil), n.frozenInput...),
	}
	for li := range n.layers {
		l := &n.layers[li]
		w := make([][]float64, l.out)
		for i := range w {
			w[i] = append([]float64(nil), l.row(i)...)
		}
		rn.layers = append(rn.layers, refLayer{w: w, act: l.act})
	}
	return rn
}

// refForwardActs is the retained per-sample forward pass: fresh slices
// every call, bias accumulated first, inputs in index order.
func (n *refNetwork) refForwardActs(x []float64) [][]float64 {
	acts := make([][]float64, len(n.sizes))
	acts[0] = x
	cur := x
	for li, l := range n.layers {
		next := make([]float64, len(l.w))
		for i, row := range l.w {
			s := row[len(row)-1] // bias
			for j, v := range cur {
				s += row[j] * v
			}
			next[i] = l.act.apply(s)
		}
		acts[li+1] = next
		cur = next
	}
	return acts
}

// refBackpropOne is the retained per-sample stochastic update.
func (n *refNetwork) refBackpropOne(x, target []float64, lr, momentum float64, vel [][][]float64, deltas [][]float64) float64 {
	acts := n.refForwardActs(x)
	out := acts[len(acts)-1]
	last := len(n.layers) - 1

	se := 0.0
	for i := range out {
		err := target[i] - out[i]
		se += err * err
		deltas[last][i] = err * n.layers[last].act.derivFromOutput(out[i])
	}
	for li := last - 1; li >= 0; li-- {
		nextL := n.layers[li+1]
		cur := acts[li+1]
		for i := range deltas[li] {
			s := 0.0
			for k, row := range nextL.w {
				s += row[i] * deltas[li+1][k]
			}
			deltas[li][i] = s * n.layers[li].act.derivFromOutput(cur[i])
		}
	}
	for li := range n.layers {
		in := acts[li]
		l := &n.layers[li]
		for i, row := range l.w {
			d := deltas[li][i]
			vrow := vel[li][i]
			for j := range row {
				var grad float64
				if j == len(row)-1 {
					grad = d // bias input is 1
				} else {
					if li == 0 && n.frozenInput[j] {
						vrow[j] = 0
						continue
					}
					grad = d * in[j]
				}
				v := momentum*vrow[j] + lr*grad
				vrow[j] = v
				row[j] += v
			}
		}
	}
	return se
}

// refTrainSGD is the retained training loop: same shuffles, same learning
// rate schedule, same early stopping as trainSGD.
func (n *refNetwork) refTrainSGD(x [][]float64, y [][]float64, opts sgdOptions, r *rand.Rand) float64 {
	vel := make([][][]float64, len(n.layers))
	for li, l := range n.layers {
		vel[li] = make([][]float64, len(l.w))
		for i := range l.w {
			vel[li][i] = make([]float64, len(l.w[i]))
		}
	}
	deltas := make([][]float64, len(n.layers))
	for li := range n.layers {
		deltas[li] = make([]float64, len(n.layers[li].w))
	}
	perm := make([]int, len(x))
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	stale := 0
	mse := math.Inf(1)
	for epoch := 0; epoch < opts.epochs; epoch++ {
		lr := opts.lr
		if opts.lrFinal > 0 && opts.epochs > 1 {
			t := float64(epoch) / float64(opts.epochs-1)
			lr = opts.lr * math.Pow(opts.lrFinal/opts.lr, t)
		}
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		sse := 0.0
		for _, i := range perm {
			sse += n.refBackpropOne(x[i], y[i], lr, opts.momentum, vel, deltas)
		}
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
	return mse
}

// assertWeightsEqualRef fails unless the flat network's weights are
// bit-identical to the ragged reference's.
func assertWeightsEqualRef(t *testing.T, n *Network, rn *refNetwork) {
	t.Helper()
	if len(n.layers) != len(rn.layers) {
		t.Fatalf("layer count %d vs reference %d", len(n.layers), len(rn.layers))
	}
	for li := range n.layers {
		l := &n.layers[li]
		for i := 0; i < l.out; i++ {
			row := l.row(i)
			ref := rn.layers[li].w[i]
			for j := range ref {
				if row[j] != ref[j] {
					t.Fatalf("layer %d unit %d weight %d: %.17g vs reference %.17g",
						li, i, j, row[j], ref[j])
				}
			}
		}
	}
}

// TestNewNetworkMatchesReferenceInit pins the flat constructor's RNG
// consumption order to the reference: same seed, bit-identical weights.
func TestNewNetworkMatchesReferenceInit(t *testing.T) {
	for _, sizes := range [][]int{{2, 3, 1}, {16, 13, 1}, {4, 6, 5, 1}} {
		n, err := NewNetwork(sizes, Sigmoid, Linear, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		rn := refNew(sizes, Sigmoid, Linear, rand.New(rand.NewSource(41)))
		assertWeightsEqualRef(t, n, rn)
	}
}

// TestTrainSGDMatchesReference drives the batched kernels and the retained
// reference through identical SGD runs and demands bit-identical weights,
// MSE, and predictions. Covers both trainable activations, learning-rate
// decay, early stopping, deep topologies, and the frozen-input mask.
func TestTrainSGDMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		sizes  []int
		hact   Activation
		oact   Activation
		opts   sgdOptions
		frozen []int
	}{
		{
			name:  "sigmoid constant lr",
			sizes: []int{4, 5, 1},
			hact:  Sigmoid, oact: Sigmoid,
			opts: sgdOptions{epochs: 40, lr: 0.4, momentum: 0.9},
		},
		{
			name:  "tansig linear out with decay",
			sizes: []int{4, 7, 1},
			hact:  TanSigmoid, oact: Linear,
			opts: sgdOptions{epochs: 35, lr: 0.2, lrFinal: 0.01, momentum: 0.5},
		},
		{
			name:  "deep with early stopping",
			sizes: []int{4, 6, 5, 1},
			hact:  Sigmoid, oact: Sigmoid,
			opts: sgdOptions{epochs: 60, lr: 0.3, momentum: 0.9, patience: 5, minDelta: 1e-7},
		},
		{
			name:  "frozen inputs",
			sizes: []int{4, 5, 1},
			hact:  Sigmoid, oact: Sigmoid,
			opts:   sgdOptions{epochs: 30, lr: 0.4, momentum: 0.9},
			frozen: []int{1, 3},
		},
	}
	x, yFlat := benchData(32, 4, 5)
	yRagged := make([][]float64, len(yFlat))
	for i, v := range yFlat {
		yRagged[i] = []float64{v}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNetwork(tc.sizes, tc.hact, tc.oact, rand.New(rand.NewSource(43)))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.frozen {
				if err := n.FreezeInput(f); err != nil {
					t.Fatal(err)
				}
			}
			rn := refFromNetwork(n)

			mse, err := n.trainSGD(context.Background(), x, yFlat, tc.opts, rand.New(rand.NewSource(44)))
			if err != nil {
				t.Fatal(err)
			}
			refMSE := rn.refTrainSGD(x, yRagged, tc.opts, rand.New(rand.NewSource(44)))

			if mse != refMSE {
				t.Fatalf("final MSE %.17g vs reference %.17g", mse, refMSE)
			}
			assertWeightsEqualRef(t, n, rn)

			s := NewScratch()
			s.ensureForward(n)
			for i := range x {
				got := n.predict1Scratch(x[i], s)
				want := rn.refForwardActs(x[i])[len(tc.sizes)-1][0]
				if got != want {
					t.Fatalf("row %d: prediction %.17g vs reference %.17g", i, got, want)
				}
			}
		})
	}
}

// trainMethods are the paper's five NN variants (NN-E split into its
// greedy and exhaustive prune flavours).
var trainMethods = []Method{Quick, Single, Dynamic, Multiple, Prune, ExhaustivePrune}

// TestTrainBitIdenticalAcrossWorkers trains every method with a serial
// pool and an 8-worker pool and requires bit-identical models: the
// worker-local scratch buffers and the engine's scheduling must never leak
// into numerical results. The trained models' predictions are then checked
// bit-exactly against the retained reference forward pass, and the batched
// PredictAll path against its per-sample tail path.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every method twice")
	}
	x, y := benchData(48, 6, 9)
	probe, _ := benchData(37, 6, 10) // odd length exercises the batch tail
	for _, m := range trainMethods {
		t.Run(m.String(), func(t *testing.T) {
			cfg := Config{Method: m, Seed: 3, EpochScale: 0.1}
			cfg.Workers = 1
			serial, err := Train(context.Background(), x, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 8
			wide, err := Train(context.Background(), x, y, cfg)
			if err != nil {
				t.Fatal(err)
			}

			sj, err := serial.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			wj, err := wide.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sj, wj) {
				t.Fatalf("serial and 8-worker models differ:\n%s\nvs\n%s", sj, wj)
			}

			rn := refFromNetwork(serial.net)
			got := predictAll(serial, probe)
			for i := range probe {
				want := rn.refForwardActs(probe[i])[len(rn.sizes)-1][0]
				if got[i] != want {
					t.Fatalf("probe %d: batched %.17g vs reference %.17g", i, got[i], want)
				}
			}
		})
	}
}

// TestPredictAllMatchesPerSample pins the minibatch kernel to the scalar
// kernel across block boundaries: every length from empty through several
// full 8-wide blocks plus tails must agree bit-exactly.
func TestPredictAllMatchesPerSample(t *testing.T) {
	x, y := benchData(32, 5, 13)
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 2, EpochScale: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	space, _ := benchData(41, 5, 14)
	s := NewScratch()
	s.ensureForward(m.net)
	for cut := 0; cut <= len(space); cut++ {
		sub := space[:cut]
		got := predictAll(m, sub)
		if len(got) != cut {
			t.Fatalf("cut %d: got %d predictions", cut, len(got))
		}
		for i := range sub {
			want := m.net.predict1Scratch(sub[i], s)
			if got[i] != want {
				t.Fatalf("cut %d row %d: batch %.17g vs scalar %.17g", cut, i, got[i], want)
			}
		}
	}
}

// TestMSEOnMatchesReference checks the batched validation scorer against a
// sequential sum on the reference forward pass.
func TestMSEOnMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	n, err := NewNetwork([]int{5, 9, 1}, Sigmoid, Sigmoid, r)
	if err != nil {
		t.Fatal(err)
	}
	x, y := benchData(27, 5, 15)
	rn := refFromNetwork(n)
	sum := 0.0
	for i := range x {
		d := rn.refForwardActs(x[i])[2][0] - y[i]
		sum += d * d
	}
	want := sum / float64(len(x))
	if got := n.mseOn(x, y, nil); got != want {
		t.Fatalf("mseOn %.17g vs reference %.17g", got, want)
	}
}

// TestSeedIndependence double-checks the harness itself: two different
// seeds must produce different models (guards against the equivalence
// tests degenerating into comparing constants).
func TestSeedIndependence(t *testing.T) {
	x, y := benchData(32, 4, 5)
	a, err := Train(context.Background(), x, y, Config{Method: Quick, Seed: 1, EpochScale: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(context.Background(), x, y, Config{Method: Quick, Seed: 2, EpochScale: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.MarshalJSON()
	bj, _ := b.MarshalJSON()
	if bytes.Equal(aj, bj) {
		t.Fatal("different seeds produced identical models")
	}
}
