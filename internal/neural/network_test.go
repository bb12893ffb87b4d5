package neural

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// numWeights counts a network's trainable parameters.
func numWeights(n *Network) int {
	c := 0
	for li := range n.layers {
		c += len(n.layers[li].w)
	}
	return c
}

// predictAll scores x through the batch kernel.
func predictAll(m *Model, x [][]float64) []float64 {
	return m.PredictAllInto(make([]float64, len(x)), x, nil)
}

func TestActivations(t *testing.T) {
	if got := Sigmoid.apply(0); got != 0.5 {
		t.Fatalf("sigmoid(0) = %v", got)
	}
	if got := TanSigmoid.apply(0); got != 0 {
		t.Fatalf("tanh(0) = %v", got)
	}
	if got := Linear.apply(3.7); got != 3.7 {
		t.Fatalf("linear(3.7) = %v", got)
	}
	if HardLimit.apply(0.1) != 1 || HardLimit.apply(-0.1) != 0 {
		t.Fatal("hard limit broken")
	}
}

func TestActivationDerivatives(t *testing.T) {
	// Check derivFromOutput against numeric differentiation.
	for _, a := range []Activation{Sigmoid, TanSigmoid, Linear} {
		for _, x := range []float64{-2, -0.5, 0, 0.7, 2} {
			const h = 1e-6
			num := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			got := a.derivFromOutput(a.apply(x))
			if math.Abs(got-num) > 1e-5 {
				t.Errorf("%v'(%v) = %v, numeric %v", a, x, got, num)
			}
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := NewNetwork([]int{3}, Sigmoid, Linear, r); err == nil {
		t.Fatal("single layer: want error")
	}
	if _, err := NewNetwork([]int{3, 0, 1}, Sigmoid, Linear, r); err == nil {
		t.Fatal("zero-size layer: want error")
	}
	n, err := NewNetwork([]int{4, 5, 2}, Sigmoid, Linear, r)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumInputs() != 4 || n.NumOutputs() != 2 {
		t.Fatal("dims wrong")
	}
	hs := n.sizes[1 : len(n.sizes)-1]
	if len(hs) != 1 || hs[0] != 5 {
		t.Fatalf("hidden = %v", hs)
	}
	// weights: 5*(4+1) + 2*(5+1) = 37
	if numWeights(n) != 37 {
		t.Fatalf("NumWeights = %d", numWeights(n))
	}
}

func TestForwardKnownNetwork(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n, err := NewNetwork([]int{2, 1, 1}, Linear, Linear, r)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-set weights: hidden = 2*x0 + 3*x1 + 1; out = 0.5*h - 2.
	copy(n.layers[0].row(0), []float64{2, 3, 1})
	copy(n.layers[1].row(0), []float64{0.5, -2})
	got := n.Predict1([]float64{1, 2})
	want := 0.5*(2*1+3*2+1) - 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict1 = %v, want %v", got, want)
	}
}

func TestPredict1PanicsOnMultiOutput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n, _ := NewNetwork([]int{2, 3, 2}, Sigmoid, Linear, r)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	n.Predict1([]float64{0, 0})
}

func TestCloneIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n, _ := NewNetwork([]int{2, 3, 1}, Sigmoid, Sigmoid, r)
	c := n.Clone()
	before := n.Predict1([]float64{0.5, 0.5})
	c.layers[0].w[0] += 10
	if n.Predict1([]float64{0.5, 0.5}) != before {
		t.Fatal("clone shares weight storage")
	}
}

func TestFreezeInput(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, _ := NewNetwork([]int{3, 4, 1}, Sigmoid, Sigmoid, r)
	if err := n.FreezeInput(1); err != nil {
		t.Fatal(err)
	}
	if !n.InputFrozen(1) || n.InputFrozen(0) {
		t.Fatal("frozen flags wrong")
	}
	// Output must be insensitive to the frozen input.
	a := n.Predict1([]float64{0.2, 0.0, 0.8})
	b := n.Predict1([]float64{0.2, 1.0, 0.8})
	if a != b {
		t.Fatal("frozen input still influences output")
	}
	if err := n.FreezeInput(7); err == nil {
		t.Fatal("out of range freeze: want error")
	}
}

func TestRemoveHidden(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n, _ := NewNetwork([]int{2, 4, 1}, Sigmoid, Sigmoid, r)
	if err := n.RemoveHidden(0, 2); err != nil {
		t.Fatal(err)
	}
	if hs := n.sizes[1 : len(n.sizes)-1]; hs[0] != 3 {
		t.Fatalf("hidden after removal = %v", hs)
	}
	// Forward still works with consistent shapes.
	_ = n.Predict1([]float64{0.3, 0.7})
	// Removing down to zero is rejected.
	_ = n.RemoveHidden(0, 0)
	_ = n.RemoveHidden(0, 0)
	if err := n.RemoveHidden(0, 0); err == nil {
		t.Fatal("removing last unit: want error")
	}
	if err := n.RemoveHidden(5, 0); err == nil {
		t.Fatal("bad layer: want error")
	}
	if err := n.RemoveHidden(0, 99); err == nil {
		t.Fatal("bad index: want error")
	}
}

func TestRemoveHiddenPreservesOtherUnits(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, _ := NewNetwork([]int{1, 2, 1}, Linear, Linear, r)
	// unit0: y0 = x; unit1: y1 = 5x; out = 1*y0 + 1*y1.
	copy(n.layers[0].row(0), []float64{1, 0})
	copy(n.layers[0].row(1), []float64{5, 0})
	copy(n.layers[1].row(0), []float64{1, 1, 0})
	if err := n.RemoveHidden(0, 1); err != nil {
		t.Fatal(err)
	}
	// Only unit0 remains: out = x.
	if got := n.Predict1([]float64{3}); math.Abs(got-3) > 1e-12 {
		t.Fatalf("after removal f(3) = %v, want 3", got)
	}
}

func TestHiddenSaliency(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n, _ := NewNetwork([]int{1, 3, 1}, Sigmoid, Linear, r)
	copy(n.layers[1].row(0), []float64{0.1, -5, 2, 0})
	sal := n.hiddenSaliency(0, nil)
	if !(sal[1] > sal[2] && sal[2] > sal[0]) {
		t.Fatalf("saliency = %v", sal)
	}
	// A reused buffer holding stale scores yields the same scores.
	if again := n.hiddenSaliency(0, []float64{7, 7, 7, 7}); !slices.Equal(again, sal) {
		t.Fatalf("saliency into a used buffer = %v, want %v", again, sal)
	}
}

func TestInputSaliency(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n, _ := NewNetwork([]int{2, 2, 1}, Sigmoid, Linear, r)
	copy(n.layers[0].row(0), []float64{3, 0.1, 0})
	copy(n.layers[0].row(1), []float64{-2, 0.2, 0})
	sal := n.inputSaliency(nil)
	if !(sal[0] > sal[1]) {
		t.Fatalf("input saliency = %v", sal)
	}
	if again := n.inputSaliency([]float64{7, 7, 7}); !slices.Equal(again, sal) {
		t.Fatalf("input saliency into a used buffer = %v, want %v", again, sal)
	}
}

// Property: network outputs are deterministic functions of the input.
func TestForwardDeterministicProperty(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	n, _ := NewNetwork([]int{3, 5, 1}, Sigmoid, Sigmoid, r)
	f := func(a, b, c uint8) bool {
		x := []float64{float64(a) / 255, float64(b) / 255, float64(c) / 255}
		return n.Predict1(x) == n.Predict1(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid-output networks stay inside (0,1) — the saturation that
// limits chronological extrapolation.
func TestSigmoidOutputBoundedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n, _ := NewNetwork([]int{2, 4, 1}, Sigmoid, Sigmoid, r)
	f := func(a, b int8) bool {
		x := []float64{float64(a), float64(b)} // deliberately far outside [0,1]
		o := n.Predict1(x)
		return o > 0 && o < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
