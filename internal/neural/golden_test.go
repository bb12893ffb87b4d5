package neural

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenMethodArtifacts pins every training method by the SHA-256 of
// its saved model on one small problem. The hashes were captured from
// trainers that allocated a generator per stream and a network per prune
// step; the worker's reseeded generator and the prune loops' spare
// network must train the same models bit for bit.
func TestGoldenMethodArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every method")
	}
	want := map[Method]string{
		Quick:           "f197724bce660b39564aa0d00386ad2062392a6285cb4f0602ff809d3b2da0e8",
		Single:          "025ada75bea78cf0cc88091c374273f5f4d1d5ae0b88f943c8af7007c727d1d5",
		Dynamic:         "32d6f3ff9713c3c7b78d22e77f0021794f26e6e93bbc70347aa36c16aa2c524f",
		Multiple:        "d15b7532438d7383b2d7256f269c4e451c1db51f40d6a305860aa7dceeae1469",
		Prune:           "fa92da20dc25d213e41fcf7fc72c9f7f2de863d490f6b8a2638d3af5ba0d062f",
		ExhaustivePrune: "2fe63db2079cf9061bf81736bb87f09e423f29167f29d99fd5d6c2648ca4d703",
	}
	x, y := benchData(48, 6, 9)
	for _, m := range trainMethods {
		model, err := Train(context.Background(), x, y, Config{Method: m, Seed: 3, EpochScale: 0.1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		data, err := model.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[m] {
			t.Errorf("%v: artifact sha256 %s, want %s", m, got, want[m])
		}
	}
}

// TestExhaustivePruneFitAllocs pins the allocations of an NN-E fit on one
// worker: the worker's scratch carries the generator every stream
// reseeds, the SGD shuffle order and the prune steps' saliency scores,
// each restart copies its network into one spare per prune step instead
// of cloning a new one, and without a hook no task label is built. 100
// objects measured, with or without the race detector (116 with a label
// per restart and a saliency slice per prune step, 252 with a generator
// per stream and a clone per prune step too); the bound is that plus
// 10 %.
func TestExhaustivePruneFitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains NN-E three times")
	}
	x, y := benchData(128, 16, 7)
	cfg := Config{Method: ExhaustivePrune, Seed: 1, EpochScale: 0.1, Workers: 1}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Train(context.Background(), x, y, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 110 {
		t.Fatalf("NN-E fit allocates %.0f objects, want <= 110", allocs)
	}
}
