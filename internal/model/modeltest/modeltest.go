// Package modeltest holds the model-family conformance suite. It lives
// outside package model so that production binaries, which import model,
// do not link the testing package.
package modeltest

import (
	"context"
	"math"
	"testing"

	"perfpred/internal/model"
	"perfpred/internal/stat"
)

// TestFamily is the registry conformance suite: every registered family
// must pass it (each family package runs it over its kinds). It pins the
// contracts the layers above rely on:
//
//   - determinism: one seed produces bit-identical models at any worker
//     count, and the fit draws randomness only from FitConfig.Seed;
//   - cancellation: Fit honors an already-cancelled context;
//   - persistence: Marshal→Unmarshal round-trips to bit-identical
//     predictions;
//   - scratch reuse: with a warmed family scratch, the batch predict
//     path allocates nothing and reuse never changes results;
//   - importance: one finite non-negative score per input column.
func TestFamily(t *testing.T, kind model.Kind) {
	t.Helper()
	fam, ok := model.Lookup(kind)
	if !ok {
		t.Fatalf("kind %d is not registered", int(kind))
	}
	x, y, names := conformanceData(96, 4)
	cfg := model.FitConfig{Seed: 17, Workers: 2, EpochScale: 0.2}
	ctx := context.Background()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fam.Fit(cancelled, x, y, names, cfg); err == nil {
		t.Errorf("%s: Fit with a cancelled context succeeded", fam.Name)
	}

	m, err := fam.Fit(ctx, x, y, names, cfg)
	if err != nil {
		t.Fatalf("%s: Fit: %v", fam.Name, err)
	}
	if got := m.NumInputs(); got != len(x[0]) {
		t.Fatalf("%s: NumInputs = %d, want %d", fam.Name, got, len(x[0]))
	}
	base := predictions(m, fam, x)

	// Same seed, different worker count: bit-identical model.
	wide := cfg
	wide.Workers = 4
	m2, err := fam.Fit(ctx, x, y, names, wide)
	if err != nil {
		t.Fatalf("%s: refit: %v", fam.Name, err)
	}
	for i, p := range predictions(m2, fam, x) {
		if p != base[i] {
			t.Fatalf("%s: row %d predicts %v with 2 workers, %v with 4 — fit is not deterministic", fam.Name, i, base[i], p)
		}
	}

	// A different seed must still train (divergence is allowed, not required).
	other := cfg
	other.Seed = 18
	if _, err := fam.Fit(ctx, x, y, names, other); err != nil {
		t.Fatalf("%s: fit with seed 18: %v", fam.Name, err)
	}

	// Persistence round-trip.
	data, err := m.Marshal()
	if err != nil {
		t.Fatalf("%s: Marshal: %v", fam.Name, err)
	}
	back, err := fam.Unmarshal(data)
	if err != nil {
		t.Fatalf("%s: Unmarshal: %v", fam.Name, err)
	}
	if back.NumInputs() != m.NumInputs() {
		t.Fatalf("%s: NumInputs changed across persistence", fam.Name)
	}
	for i, p := range predictions(back, fam, x) {
		if p != base[i] {
			t.Fatalf("%s: row %d predicts %v after round-trip, %v before", fam.Name, i, p, base[i])
		}
	}

	// Importance: one finite non-negative score per column.
	imp, err := m.Importance(x)
	if err != nil {
		t.Fatalf("%s: Importance: %v", fam.Name, err)
	}
	if len(imp) != len(x[0]) {
		t.Fatalf("%s: %d importance scores for %d columns", fam.Name, len(imp), len(x[0]))
	}
	for j, s := range imp {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("%s: column %d importance %v", fam.Name, j, s)
		}
	}

	// Scratch reuse: warmed, the predict path allocates nothing and a
	// reused scratch scores exactly like a fresh one.
	s := fam.NewScratch()
	dst := make([]float64, len(x))
	m.PredictAllInto(dst, x, s)
	for i := range dst {
		if dst[i] != base[i] {
			t.Fatalf("%s: row %d differs under a reused scratch", fam.Name, i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() { m.PredictAllInto(dst, x, s) })
	if allocs != 0 {
		t.Errorf("%s: PredictAllInto allocates %v/op with a warmed scratch, want 0", fam.Name, allocs)
	}
}

// predictions scores x with a fresh scratch.
func predictions(m model.Model, fam model.Family, x [][]float64) []float64 {
	out := make([]float64, len(x))
	m.PredictAllInto(out, x, fam.NewScratch())
	return out
}

// conformanceData builds a deterministic nonlinear regression problem on
// [0,1]-scaled inputs — the shape every family's encoder produces.
func conformanceData(n, p int) (x [][]float64, y []float64, names []string) {
	r := stat.NewRand(41)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(r.Intn(9)) / 8
		}
		x[i] = row
		y[i] = 0.2 + 0.5*row[0] + 0.3*row[1]*row[1] - 0.2*row[0]*row[2] + 0.05*row[3]
	}
	names = make([]string, p)
	for j := range names {
		names[j] = "c" + string(rune('0'+j))
	}
	return x, y, names
}
