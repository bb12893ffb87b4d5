package linreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"perfpred/internal/stat"
)

// selectionProblem draws a 138-row design (the size of one sampled-DSE
// fold at 3 %) with twelve columns of which only the first four carry
// signal, plus a thirteenth that duplicates column 0 so every method meets
// a rank-deficient candidate.
func selectionProblem(seed int64) (x [][]float64, y []float64) {
	x, _, _ = randProblem(seed, 138, 12)
	r := stat.NewRand(stat.DeriveSeed(seed, 2))
	y = make([]float64, len(x))
	for i, row := range x {
		y[i] = 1 + 0.8*row[0] - 0.5*row[1] + 0.3*row[2] + 0.05*row[3] + 0.4*r.NormFloat64()
		x[i] = append(row, row[0])
	}
	return x, y
}

// digest hashes every fitted field of m bit for bit: the selected set,
// intercept, coefficients, coefficient table, RSS and (XᵀX)⁻¹. It stands
// in for MarshalJSON, which cannot encode the NaN standard errors of a
// rank-deficient fit.
func digest(m *Model) string {
	h := sha256.New()
	bits := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	fmt.Fprint(h, m.selected, ";")
	bits(m.intercept, m.rss, m.tss)
	bits(m.coef...)
	for _, c := range m.coeffs {
		bits(c.Beta, c.StdBeta, c.StdErr, c.P)
	}
	for _, row := range m.inv {
		bits(row...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSelectionArtifacts pins every selection method's fitted model
// on selectionProblem by digest.
// The hashes were captured from the solver that built a fresh design copy,
// β, R⁻¹ and (XᵀX)⁻¹ for every candidate subset; the RSS-only candidate
// solves on the fit's workspace must select and fit bit-identically.
func TestGoldenSelectionArtifacts(t *testing.T) {
	want := map[Method][]string{
		Enter: {
			"f2c1a6d546b9c5bb7aa37ab251d8fe715a85eb451633a681ca0d96c526ff85e4",
			"166dd8fd85363b76c92a03545ea7a303ba55e06f332955b17060e347e2c2d52b",
			"7658f7d46e379c591e32951a623a340d56df5d8709e4d38e99cf77d61151ebdd",
		},
		Stepwise: {
			"a17991da8cb342591e7fd2fd0bb4348a4cb6fb5701b4de1010292f0431d460d0",
			"f360dc1f9b26fd6f7dbaf0f30074c349c77953a9f270f0d15ce80fde4aaa166c",
			"ac16e4ec34b22022c8674744d02fbd5f55812599c0b774768d7939deb743a6df",
		},
		Backward: {
			"93bd4c94511c2b3a2c428dd5fd5ddb421b6ff7c01c928e0762d719761952b60a",
			"867672c32d465f803884ec3adf29e742d50e0dbb92743137d20ad7f1926ad54c",
			"a63895735d69997d011976687c4a752f46a9d3b5bd8f0466cdc1080016ccedd2",
		},
		Forward: {
			"a17991da8cb342591e7fd2fd0bb4348a4cb6fb5701b4de1010292f0431d460d0",
			"f360dc1f9b26fd6f7dbaf0f30074c349c77953a9f270f0d15ce80fde4aaa166c",
			"ac16e4ec34b22022c8674744d02fbd5f55812599c0b774768d7939deb743a6df",
		},
	}
	for _, m := range Methods() {
		for i, seed := range []int64{1, 2, 3} {
			x, y := selectionProblem(seed)
			fitted, err := Fit(x, y, nil, Options{Method: m})
			if err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			got := digest(fitted)
			if got != want[m][i] {
				t.Errorf("%v seed %d: digest %s, want %s", m, seed, got, want[m][i])
			}
		}
	}
}
