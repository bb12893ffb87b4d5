package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"perfpred/internal/tree"
)

// goldenFit pins one kind's whole sampled-DSE outcome: the cross-validated
// estimate, the true error, and a SHA-256 over the saved artifact of the
// model trained on the full sample (encoder plus tree nodes and importance,
// or coefficients and (XᵀX)⁻¹).
type goldenFit struct {
	kind     ModelKind
	estMean  float64
	estMax   float64
	trueMAPE float64
	artifact string
}

// TestGoldenTreeAndSelectionFits pins TREE-B and the two forward-selection
// LR methods (LR-F, LR-S), which the sampled-DSE and chronological goldens
// above do not cover. The values were captured from the fits that sorted
// with sort.Slice, copied each partition and candidate design, and drew
// each OOB permutation from a fresh RNG, so the scratch those kernels
// now run on is held to the numbers of the code it replaced.
func TestGoldenTreeAndSelectionFits(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run trains three models")
	}
	full := synthSpace(t, 900, 77)
	kinds := []ModelKind{LRF, LRS, tree.KindTreeB}
	want := []goldenFit{
		{LRF, 18.582117288823813, 20.09268017975031, 19.506177319805087,
			"1ed15aecf53e58efffdbf5999a680e32b4cf5de6f55219ffa7866ab44d82535d"},
		{LRS, 18.902372730924252, 21.838512132518229, 19.506177319805087,
			"406b633927cfdaea24165872b622c6ab3628ead296ead1678f5909d25ebb7342"},
		{tree.KindTreeB, 4.3447711946212957, 5.0113907797809247, 2.3240366947676359,
			"3129f22aac652295bd2b57f36dbdb9342e0e625d2322a7421cfda92a9d2627de"},
	}
	for _, workers := range []int{1, 4} {
		cfg := TrainConfig{Seed: 123, Workers: workers, EpochScale: 0.25}
		res, err := RunSampledDSE(context.Background(), full, 0.2, kinds, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Reports) != len(want) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(res.Reports), len(want))
		}
		for i, w := range want {
			g := res.Reports[i]
			var buf bytes.Buffer
			if err := g.Predictor.Save(&buf); err != nil {
				t.Fatalf("%v: save: %v", w.kind, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := goldenFit{g.Kind, g.Estimate.Mean, g.Estimate.Max, g.TrueMAPE, hex.EncodeToString(sum[:])}
			if got != w {
				t.Errorf("workers=%d %v:\n got %.17g %.17g %.17g %s\nwant %.17g %.17g %.17g %s", workers, w.kind,
					got.estMean, got.estMax, got.trueMAPE, got.artifact, w.estMean, w.estMax, w.trueMAPE, w.artifact)
			}
		}
	}
}
