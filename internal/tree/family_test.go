package tree

import (
	"context"
	"testing"

	"perfpred/internal/model"
	"perfpred/internal/model/modeltest"
)

// TestFamilyConformance holds TREE-B to the same registry contract as
// every paper family: deterministic fits at any worker count, prompt
// cancellation, bit-identical persistence, and allocation-free batch
// prediction.
func TestFamilyConformance(t *testing.T) {
	modeltest.TestFamily(t, KindTreeB)
}

func TestFamilyEpochScaleSizesEnsemble(t *testing.T) {
	fam, ok := model.Lookup(KindTreeB)
	if !ok {
		t.Fatal("TREE-B not registered")
	}
	x, y := synthGrid(64, 3)
	for _, tc := range []struct {
		scale float64
		want  int
	}{
		{0, defaultTrees}, // unset: full ensemble
		{1, defaultTrees}, // explicit full scale
		{0.25, 16},        // scaled down
		{0.01, 8},         // floor: never fewer than 8 trees
	} {
		m, err := fam.Fit(context.Background(), x, y, nil, model.FitConfig{Seed: 5, Workers: 1, EpochScale: tc.scale})
		if err != nil {
			t.Fatalf("scale %v: %v", tc.scale, err)
		}
		got := m.(familyModel).NumTrees()
		if got != tc.want {
			t.Errorf("scale %v: %d trees, want %d", tc.scale, got, tc.want)
		}
	}
}
