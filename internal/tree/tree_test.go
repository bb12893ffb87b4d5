package tree

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"perfpred/internal/stat"
)

// synthGrid builds a deterministic regression problem: y depends strongly
// on column 0, weakly on column 1, and not at all on the rest.
func synthGrid(n, p int) (x [][]float64, y []float64) {
	r := stat.NewRand(99)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(r.Intn(16)) / 15
		}
		x[i] = row
		y[i] = 10*row[0] + row[1]
	}
	return x, y
}

func fitQuick(t *testing.T, cfg Config) *Model {
	t.Helper()
	x, y := synthGrid(120, 4)
	m, err := Fit(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFitValidatesInputs(t *testing.T) {
	ctx := context.Background()
	ok := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y4 := []float64{1, 2, 3, 4}
	for name, tc := range map[string]struct {
		x [][]float64
		y []float64
	}{
		"empty":    {nil, nil},
		"mismatch": {ok, []float64{1}},
		"zero width": {
			[][]float64{{}, {}, {}, {}}, y4,
		},
		"ragged": {
			[][]float64{{1, 2}, {3}, {5, 6}, {7, 8}}, y4,
		},
		"too few": {
			[][]float64{{1, 2}, {3, 4}}, []float64{1, 2},
		},
	} {
		if _, err := Fit(ctx, tc.x, tc.y, Config{Trees: 2}); err == nil {
			t.Errorf("%s: Fit accepted invalid input", name)
		}
	}
	if _, err := Fit(ctx, ok, y4, Config{Trees: 2}); err != nil {
		t.Fatalf("minimal valid input rejected: %v", err)
	}
}

func TestFitHonorsCancelledContext(t *testing.T) {
	x, y := synthGrid(120, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fit(ctx, x, y, Config{Trees: 4}); err == nil {
		t.Fatal("cancelled fit succeeded")
	}
}

// TestDeterminism pins the seed contract: one seed is bit-identical across
// worker counts, and a different seed grows a different ensemble.
func TestDeterminism(t *testing.T) {
	x, _ := synthGrid(120, 4)
	base := fitQuick(t, Config{Trees: 16, Seed: 7, Workers: 1})
	wide := fitQuick(t, Config{Trees: 16, Seed: 7, Workers: 4})
	other := fitQuick(t, Config{Trees: 16, Seed: 8, Workers: 1})
	diverged := false
	for _, row := range x {
		if wide.Predict(row) != base.Predict(row) {
			t.Fatal("same seed, different workers: predictions differ")
		}
		if other.Predict(row) != base.Predict(row) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 grew identical ensembles")
	}
}

// TestSplitsRecoverSignal checks the greedy splitter actually learns: on a
// problem dominated by column 0, ensemble predictions must track the
// target far better than the global mean.
func TestSplitsRecoverSignal(t *testing.T) {
	x, y := synthGrid(120, 4)
	m := fitQuick(t, Config{Trees: 32, Seed: 3})
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	sseModel, sseMean := 0.0, 0.0
	for i, row := range x {
		d := m.Predict(row) - y[i]
		sseModel += d * d
		d = mean - y[i]
		sseMean += d * d
	}
	if sseModel > sseMean/10 {
		t.Fatalf("ensemble SSE %v vs mean-baseline %v: trees did not learn the signal", sseModel, sseMean)
	}
}

// TestImportanceRanksSignal: OOB permutation importance must rank the
// strong column first, scale it to 1.0, and give pure-noise columns less.
func TestImportanceRanksSignal(t *testing.T) {
	m := fitQuick(t, Config{Trees: 32, Seed: 3})
	imp, err := m.Importance(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 4 {
		t.Fatalf("%d importance scores, want 4", len(imp))
	}
	if imp[0] != 1.0 {
		t.Fatalf("dominant column scored %v, want 1.0 after normalization", imp[0])
	}
	for j := 1; j < 4; j++ {
		if imp[j] >= imp[0] {
			t.Fatalf("column %d importance %v >= dominant column's %v", j, imp[j], imp[0])
		}
	}
	if imp[2] > 0.5 || imp[3] > 0.5 {
		t.Fatalf("noise columns scored %v, %v — want well below the signal", imp[2], imp[3])
	}
}

func TestPredictAllIntoMatchesPredict(t *testing.T) {
	x, _ := synthGrid(64, 4)
	m := fitQuick(t, Config{Trees: 8, Seed: 1})
	dst := make([]float64, len(x))
	m.PredictAllInto(dst, x)
	for i, row := range x {
		if dst[i] != m.Predict(row) {
			t.Fatalf("row %d: batch %v, scalar %v", i, dst[i], m.Predict(row))
		}
	}
	allocs := testing.AllocsPerRun(20, func() { m.PredictAllInto(dst, x) })
	if allocs != 0 {
		t.Fatalf("PredictAllInto allocates %v/op, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dst/x length mismatch did not panic")
		}
	}()
	m.PredictAllInto(make([]float64, 1), x)
}

func TestSerializeRoundTrip(t *testing.T) {
	x, _ := synthGrid(120, 4)
	m := fitQuick(t, Config{Trees: 8, Seed: 2})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputs() != m.NumInputs() || len(back.trees) != len(m.trees) {
		t.Fatal("shape changed across persistence")
	}
	for _, row := range x {
		if back.Predict(row) != m.Predict(row) {
			t.Fatal("round-tripped model predicts differently")
		}
	}
	bi, err := back.Importance(nil)
	if err != nil {
		t.Fatal(err)
	}
	mi, _ := m.Importance(nil)
	for j := range mi {
		if bi[j] != mi[j] {
			t.Fatal("importance changed across persistence")
		}
	}
}

// TestUnmarshalRejectsCorruptArtifacts: every structural invariant the
// loader promises — version, width, tree presence, importance length,
// feature range, and strictly-forward children (walk termination).
func TestUnmarshalRejectsCorruptArtifacts(t *testing.T) {
	leaf := node{Feature: -1, Value: 1}
	valid := modelState{
		Version:    modelVersion,
		NumInputs:  2,
		Importance: []float64{1, 0},
		Trees: [][]node{{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
			leaf, leaf,
		}},
	}
	if _, err := UnmarshalModel(mustJSON(t, valid)); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	for name, corrupt := range map[string]func(st *modelState){
		"bad version":       func(st *modelState) { st.Version = 9 },
		"zero width":        func(st *modelState) { st.NumInputs = 0 },
		"no trees":          func(st *modelState) { st.Trees = nil },
		"empty tree":        func(st *modelState) { st.Trees = [][]node{{}} },
		"importance length": func(st *modelState) { st.Importance = []float64{1} },
		"feature range":     func(st *modelState) { st.Trees[0][0].Feature = 2 },
		"backward child":    func(st *modelState) { st.Trees[0][0].Left = 0 },
		"child overflow":    func(st *modelState) { st.Trees[0][0].Right = 9 },
	} {
		st := valid
		st.Importance = append([]float64(nil), valid.Importance...)
		st.Trees = [][]node{append([]node(nil), valid.Trees[0]...)}
		corrupt(&st)
		if _, err := UnmarshalModel(mustJSON(t, st)); err == nil {
			t.Errorf("%s: corrupted artifact accepted", name)
		}
	}
	if _, err := UnmarshalModel([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func mustJSON(t *testing.T, st modelState) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestImportanceFiniteGuard: a model whose stored scores are corrupted
// reports an error instead of propagating NaNs into reports.
func TestImportanceFiniteGuard(t *testing.T) {
	m := fitQuick(t, Config{Trees: 4, Seed: 1})
	m.importance[0] = math.NaN()
	if _, err := m.Importance(nil); err == nil {
		t.Fatal("NaN importance accepted")
	}
	m.importance = m.importance[:1]
	if _, err := m.Importance(nil); err == nil {
		t.Fatal("truncated importance accepted")
	}
}

func TestPredictSpreadIntoMatchesPredict(t *testing.T) {
	x, _ := synthGrid(64, 4)
	m := fitQuick(t, Config{Trees: 8, Seed: 1})
	mean := make([]float64, len(x))
	spread := make([]float64, len(x))
	m.PredictSpreadInto(mean, spread, x)
	for i, row := range x {
		if mean[i] != m.Predict(row) {
			t.Fatalf("row %d: spread-path mean %v != Predict %v", i, mean[i], m.Predict(row))
		}
		// Cross-check the spread against a two-pass population deviation.
		vals := make([]float64, len(m.trees))
		mu := 0.0
		for j, tr := range m.trees {
			vals[j] = predictTree(tr, row)
			mu += vals[j]
		}
		mu /= float64(len(vals))
		va := 0.0
		for _, v := range vals {
			va += (v - mu) * (v - mu)
		}
		want := math.Sqrt(va / float64(len(vals)))
		if math.Abs(spread[i]-want) > 1e-9 {
			t.Fatalf("row %d: spread %v, want %v", i, spread[i], want)
		}
		if spread[i] < 0 {
			t.Fatalf("row %d: negative spread %v", i, spread[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() { m.PredictSpreadInto(mean, spread, x) })
	if allocs != 0 {
		t.Fatalf("PredictSpreadInto allocates %v/op, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mean/spread/x length mismatch did not panic")
		}
	}()
	m.PredictSpreadInto(make([]float64, 1), spread, x)
}

// TestSingleTreeSpreadIsZero: an ensemble of one tree cannot disagree
// with itself.
func TestSingleTreeSpreadIsZero(t *testing.T) {
	x, _ := synthGrid(32, 4)
	m := fitQuick(t, Config{Trees: 1, Seed: 3})
	mean := make([]float64, len(x))
	spread := make([]float64, len(x))
	m.PredictSpreadInto(mean, spread, x)
	for i := range spread {
		if spread[i] != 0 {
			t.Fatalf("row %d: single-tree spread %v, want 0", i, spread[i])
		}
	}
}
