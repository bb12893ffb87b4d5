package tree

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenEnsembleArtifact pins a full default-size ensemble on
// benchData — 64 trees grown to depth 8 on 512 rows with many tied
// feature values — by the SHA-256 of its saved artifact (every node and
// the OOB importance). The hash was captured from the builder that sorted
// with sort.Slice, copied each partition into fresh slices and drew each
// feature's OOB permutation from a freshly allocated RNG; the per-fit
// scratch must grow the same trees bit for bit.
func TestGoldenEnsembleArtifact(t *testing.T) {
	const want = "24251d720a72b4c603266dc8ddfab9de73f979ec04e93729df46b519f0e216ef"
	x, y := benchData(512, 8)
	for _, workers := range []int{1, 3} {
		m, err := Fit(context.Background(), x, y, Config{Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: artifact sha256 %s, want %s", workers, got, want)
		}
	}
}
