package neural

import (
	"math"
	"math/rand"
	"testing"
)

// lossOf is the per-sample objective the trainer descends: (target-f(x))².
func lossOf(n *Network, x, target []float64) float64 {
	out := n.Forward(x)[0]
	d := target[0] - out
	return d * d
}

// checkSampleGradients runs one backpropSample step with lr=1, momentum=0
// and compares every resulting weight delta (update = lr·grad) against the
// central-difference gradient of -loss/2 on the pre-update network. Frozen
// first-layer weights are asserted to stay exactly in place instead.
func checkSampleGradients(t *testing.T, n *Network, x, target []float64) {
	t.Helper()
	before := n.Clone()
	s := new(Scratch)
	s.ensureBackward(n)
	n.backpropSample(x, target, 1.0, 0, s)

	const (
		h   = 1e-6
		tol = 1e-6
	)
	checked, frozen := 0, 0
	for li := range before.layers {
		l := &before.layers[li]
		stride := l.in + 1
		for wi := range l.w {
			analytic := n.layers[li].w[wi] - before.layers[li].w[wi]
			if li == 0 && wi%stride < l.in && before.frozenInput[wi%stride] {
				// Pruned input: the mask must pin the weight bit-exactly.
				if analytic != 0 {
					t.Fatalf("layer %d weight %d: frozen input moved by %g", li, wi, analytic)
				}
				frozen++
				continue
			}
			probe := before.Clone()
			probe.layers[li].w[wi] += h
			up := lossOf(probe, x, target)
			probe.layers[li].w[wi] -= 2 * h
			down := lossOf(probe, x, target)
			numeric := -(up - down) / (4 * h) // d(-loss/2)/dw
			if math.Abs(analytic-numeric) > tol*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d (row pos %d of stride %d): backprop %.3e vs numeric %.3e",
					li, wi, wi%stride, stride, analytic, numeric)
			}
			checked++
		}
	}
	if checked+frozen != numWeights(before) {
		t.Fatalf("checked %d+%d of %d weights", checked, frozen, numWeights(before))
	}
}

// TestBackpropMatchesNumericalGradient verifies the batched backward
// kernel against central-difference numerical gradients on a small
// network — the canonical correctness check for hand-written training
// code. The bias rows are covered implicitly: every (in+1)-th flat weight
// is a fused bias and is checked like any other parameter.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n, err := NewNetwork([]int{3, 4, 1}, Sigmoid, Sigmoid, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSampleGradients(t, n, []float64{0.3, 0.7, 0.1}, []float64{0.6})
}

// TestBackpropGradientTanh repeats the check with tanh hidden units and a
// linear output.
func TestBackpropGradientTanh(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	n, err := NewNetwork([]int{2, 3, 1}, TanSigmoid, Linear, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSampleGradients(t, n, []float64{0.2, -0.4}, []float64{0.3})
}

// TestBackpropGradientDeepNetwork checks a two-hidden-layer topology so
// the delta backpropagation across interior layers is exercised too.
func TestBackpropGradientDeepNetwork(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n, err := NewNetwork([]int{3, 5, 4, 1}, Sigmoid, Sigmoid, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSampleGradients(t, n, []float64{0.9, 0.1, 0.5}, []float64{0.4})
}

// TestBackpropGradientFrozenMask verifies the prune-frozen-weight mask
// inside the kernel: frozen first-layer columns must not move (and their
// velocity must stay clamped), while every live weight still matches the
// numerical gradient.
func TestBackpropGradientFrozenMask(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	n, err := NewNetwork([]int{4, 5, 1}, Sigmoid, Sigmoid, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FreezeInput(1); err != nil {
		t.Fatal(err)
	}
	if err := n.FreezeInput(3); err != nil {
		t.Fatal(err)
	}
	checkSampleGradients(t, n, []float64{0.3, 0.9, 0.2, 0.7}, []float64{0.5})
}

// TestBatchedEpochMatchesSequentialNumericSGD drives the whole batched
// backward kernel (trainEpoch) over a multi-sample batch and checks it
// against the slow definition of per-sample SGD: for each sample in
// order, measure the numerical gradient at the current weights and apply
// the update. The batched path must land within finite-difference
// tolerance of that trajectory.
func TestBatchedEpochMatchesSequentialNumericSGD(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	n, err := NewNetwork([]int{2, 3, 1}, Sigmoid, Sigmoid, r)
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{0.1, 0.9}, {0.8, 0.2}, {0.5, 0.5}, {0.3, 0.4}}
	y := []float64{0.2, 0.7, 0.4, 0.9}
	perm := []int{2, 0, 3, 1}
	const lr = 0.3

	// Reference trajectory from numerical gradients.
	ref := n.Clone()
	const h = 1e-6
	for _, i := range perm {
		next := ref.Clone()
		for li := range ref.layers {
			for wi := range ref.layers[li].w {
				probe := ref.Clone()
				probe.layers[li].w[wi] += h
				up := lossOf(probe, x[i], []float64{y[i]})
				probe.layers[li].w[wi] -= 2 * h
				down := lossOf(probe, x[i], []float64{y[i]})
				grad := -(up - down) / (4 * h)
				next.layers[li].w[wi] += lr * grad
			}
		}
		ref = next
	}

	s := new(Scratch)
	s.ensureBackward(n)
	n.trainEpoch(x, y, perm, lr, 0, s)

	for li := range n.layers {
		for wi := range n.layers[li].w {
			got, want := n.layers[li].w[wi], ref.layers[li].w[wi]
			if math.Abs(got-want) > 1e-5*math.Max(1, math.Abs(want)) {
				t.Fatalf("layer %d weight %d: batched %.9f vs numeric-SGD %.9f", li, wi, got, want)
			}
		}
	}
}
