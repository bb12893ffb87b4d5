package neural

import (
	"context"
	"math/rand"
	"testing"
)

func TestImportanceRanksDominantInput(t *testing.T) {
	// y depends strongly on x0, weakly on x1, not at all on x2 — like the
	// paper's Opteron finding that processor speed dominates (§4.4).
	r := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		y[i] = 0.1 + 0.7*x[i][0] + 0.1*x[i][1]
	}
	m, err := Train(context.Background(), x, y, Config{Method: Quick, Seed: 5, EpochScale: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := m.Importance(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 3 {
		t.Fatalf("len = %d", len(imp))
	}
	if !(imp[0] > imp[1] && imp[1] > imp[2]) {
		t.Fatalf("importance ordering wrong: %v", imp)
	}
	for j, v := range imp {
		if v < 0 || v > 1 {
			t.Fatalf("importance[%d] = %v outside [0,1]", j, v)
		}
	}
	if imp[0] < 0.4 {
		t.Fatalf("dominant input importance %v too small", imp[0])
	}
	if imp[2] > 0.2 {
		t.Fatalf("irrelevant input importance %v too large", imp[2])
	}
}

func TestImportanceConstantInputIsZero(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 60
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.Float64(), 0.5} // second input constant
		y[i] = 0.2 + 0.6*x[i][0]
	}
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 6, EpochScale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := m.Importance(x)
	if err != nil {
		t.Fatal(err)
	}
	if imp[1] != 0 {
		t.Fatalf("constant input importance = %v, want 0", imp[1])
	}
}

func TestImportanceFrozenInputIsZero(t *testing.T) {
	x, y := smoothData(3, 80)
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 7, EpochScale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.net.FreezeInput(2); err != nil {
		t.Fatal(err)
	}
	imp, err := m.Importance(x)
	if err != nil {
		t.Fatal(err)
	}
	if imp[2] != 0 {
		t.Fatalf("frozen input importance = %v, want 0", imp[2])
	}
}

func TestImportanceErrors(t *testing.T) {
	x, y := smoothData(4, 40)
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 8, EpochScale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Importance(nil); err == nil {
		t.Fatal("no probes: want error")
	}
	if _, err := m.Importance([][]float64{{1, 2}}); err == nil {
		t.Fatal("width mismatch: want error")
	}
}

func TestImportanceDeterministic(t *testing.T) {
	x, y := smoothData(5, 150)
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 9, EpochScale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Importance(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Importance(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("importance not deterministic")
		}
	}
}
