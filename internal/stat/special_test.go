package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLnGammaAgainstStdlib(t *testing.T) {
	for _, x := range []float64{0.1, 0.5, 1, 1.5, 2, 3.7, 10, 42.5, 100, 500} {
		want, _ := math.Lgamma(x)
		got := LnGamma(x)
		if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
			t.Errorf("LnGamma(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLnGammaInvalid(t *testing.T) {
	if !math.IsNaN(LnGamma(0)) || !math.IsNaN(LnGamma(-1)) {
		t.Fatal("LnGamma of non-positive input should be NaN")
	}
}

func TestLnGammaRecurrenceProperty(t *testing.T) {
	// Γ(x+1) = x Γ(x)  ⇒  lnΓ(x+1) = ln(x) + lnΓ(x)
	f := func(u uint16) bool {
		x := 0.25 + float64(u%1000)/100 // 0.25 .. 10.24
		lhs := LnGamma(x + 1)
		rhs := math.Log(x) + LnGamma(x)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	v, err := RegIncBeta(2, 3, 0)
	if err != nil || v != 0 {
		t.Fatalf("I_0 = %v, %v", v, err)
	}
	v, err = RegIncBeta(2, 3, 1)
	if err != nil || v != 1 {
		t.Fatalf("I_1 = %v, %v", v, err)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		v, err := RegIncBeta(1, 1, x)
		if err != nil || math.Abs(v-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, %v", x, v, err)
		}
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		v, err := RegIncBeta(2, 2, x)
		want := x * x * (3 - 2*x)
		if err != nil || math.Abs(v-want) > 1e-12 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, v, want)
		}
	}
}

func TestRegIncBetaSymmetryProperty(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	f := func(ai, bi, xi uint8) bool {
		a := 0.5 + float64(ai%40)/4
		b := 0.5 + float64(bi%40)/4
		x := (float64(xi) + 0.5) / 257
		v1, err1 := RegIncBeta(a, b, x)
		v2, err2 := RegIncBeta(b, a, 1-x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(v1-(1-v2)) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaErrors(t *testing.T) {
	if _, err := RegIncBeta(0, 1, 0.5); err == nil {
		t.Fatal("a=0: want error")
	}
	if _, err := RegIncBeta(1, 1, -0.1); err == nil {
		t.Fatal("x<0: want error")
	}
	if _, err := RegIncBeta(1, 1, 1.1); err == nil {
		t.Fatal("x>1: want error")
	}
}
