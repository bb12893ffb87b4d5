package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnown(t *testing.T) {
	cases := []struct{ x, mu, sigma, want float64 }{
		{0, 0, 1, 0.5},
		{1.96, 0, 1, 0.9750021048517795},
		{-1.96, 0, 1, 0.0249978951482205},
		{10, 10, 2, 0.5},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, c.mu, c.sigma); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if got := NormalCDF(1, 2, 0); got != 0 {
		t.Fatalf("below point mass: %v", got)
	}
	if got := NormalCDF(3, 2, 0); got != 1 {
		t.Fatalf("above point mass: %v", got)
	}
}

func TestStudentTCDFKnown(t *testing.T) {
	// t=0 → 0.5 for any df; large df → approaches normal.
	for _, df := range []float64{1, 5, 30} {
		v, err := StudentTCDF(0, df)
		if err != nil || math.Abs(v-0.5) > 1e-12 {
			t.Errorf("T(0; %v) = %v, %v", df, v, err)
		}
	}
	// t_{0.975, 10} quantile is 2.228139; CDF there should be 0.975.
	v, err := StudentTCDF(2.2281388519649385, 10)
	if err != nil || math.Abs(v-0.975) > 1e-6 {
		t.Errorf("T(2.228; 10) = %v, %v", v, err)
	}
	// Cauchy (df=1): CDF(1) = 0.75.
	v, err = StudentTCDF(1, 1)
	if err != nil || math.Abs(v-0.75) > 1e-9 {
		t.Errorf("T(1; 1) = %v, %v", v, err)
	}
}

func TestStudentTSymmetryProperty(t *testing.T) {
	f := func(ti int8, dfi uint8) bool {
		tt := float64(ti) / 16
		df := 1 + float64(dfi%60)
		a, err1 := StudentTCDF(tt, df)
		b, err2 := StudentTCDF(-tt, df)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a+b-1) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFCDFKnown(t *testing.T) {
	// F(1,1): CDF(1) = 0.5.
	v, err := FCDF(1, 1, 1)
	if err != nil || math.Abs(v-0.5) > 1e-9 {
		t.Errorf("F(1;1,1) = %v, %v", v, err)
	}
	// F distribution relationship: if T ~ t(df) then T^2 ~ F(1, df).
	const tcrit, df = 2.2281388519649385, 10.0
	v, err = FCDF(tcrit*tcrit, 1, df)
	if err != nil || math.Abs(v-0.95) > 1e-6 {
		t.Errorf("F(t^2;1,10) = %v, want 0.95", v)
	}
	v, err = FCDF(0, 3, 4)
	if err != nil || v != 0 {
		t.Errorf("F(0) = %v, %v", v, err)
	}
}

func TestFSurvivalComplement(t *testing.T) {
	c, err := FCDF(2.5, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FSurvival(2.5, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c+s-1) > 1e-12 {
		t.Fatalf("CDF + survival = %v", c+s)
	}
}

func TestFCDFMonotoneProperty(t *testing.T) {
	f := func(fi uint8, d1i, d2i uint8) bool {
		fv := float64(fi) / 16
		d1 := 1 + float64(d1i%20)
		d2 := 1 + float64(d2i%20)
		a, err1 := FCDF(fv, d1, d2)
		b, err2 := FCDF(fv+0.25, d1, d2)
		if err1 != nil || err2 != nil {
			return false
		}
		return b >= a-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTTestPValue(t *testing.T) {
	// |t| = 2.228 with df 10 → p = 0.05.
	p, err := TTestPValue(2.2281388519649385, 10)
	if err != nil || math.Abs(p-0.05) > 1e-6 {
		t.Fatalf("p = %v, %v", p, err)
	}
	pneg, err := TTestPValue(-2.2281388519649385, 10)
	if err != nil || math.Abs(pneg-p) > 1e-12 {
		t.Fatalf("p-value not symmetric: %v vs %v", pneg, p)
	}
}

func TestDistErrors(t *testing.T) {
	if _, err := StudentTCDF(1, 0); err == nil {
		t.Fatal("t with df=0: want error")
	}
	if _, err := FCDF(1, 0, 5); err == nil {
		t.Fatal("F with d1=0: want error")
	}
}
