package tree

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"perfpred/internal/engine"
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

// TestScratchReuseInvisible: one worker's scratch grows trees for A
// (n = 200), then B (n = 137, another width), then A again, and every
// tree and importance row equals one grown on a fresh scratch. A fit on
// one worker, which reuses its scratch for every tree, marshals the same
// model before and after a fit of another size.
func TestScratchReuseInvisible(t *testing.T) {
	xa, ya := synthGrid(200, 4)
	xb, yb := benchData(137, 6)
	sets := []struct {
		x [][]float64
		y []float64
	}{{xa, ya}, {xb, yb}, {xa, ya}}
	wctx := engine.NewWorkerContext(context.Background())
	var fits [][]byte
	for k, d := range sets {
		for tr := 0; tr < 8; tr++ {
			seed := stat.DeriveSeed(5, tr)
			gotImp, wantImp := make([]float64, len(d.x[0])), make([]float64, len(d.x[0]))
			gotNodes := scratchFrom(wctx, d.x, d.y).grow(seed, gotImp)
			wantNodes := scratchFrom(context.Background(), d.x, d.y).grow(seed, wantImp)
			if !slices.Equal(gotNodes, wantNodes) || !slices.Equal(gotImp, wantImp) {
				t.Fatalf("set %d tree %d: reused scratch grew a different tree than a fresh one", k, tr)
			}
		}
		m, err := Fit(context.Background(), d.x, d.y, Config{Trees: 8, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		fits = append(fits, data)
	}
	fresh, err := Fit(context.Background(), xb, yb, Config{Trees: 8, Seed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(fits[0]) != string(fits[2]) || string(fits[1]) != string(freshB) {
		t.Fatal("a fit after one of another size marshals a different model")
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
// feature range, and strictly-forward children (walk termination) — and
// that a feature or child index too wide for its node field fails to
// decode instead of wrapping.
func TestUnmarshalRejectsCorruptArtifacts(t *testing.T) {
	leaf := looseNode{Feature: -1, Value: 1}
	valid := modelState[[][]looseNode]{
		Version:    modelVersion,
		NumInputs:  2,
		Importance: []float64{1, 0},
		Trees: [][]looseNode{{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
			leaf, leaf,
		}},
	}
	if _, err := UnmarshalModel(mustJSON(t, valid)); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		corrupt  func(st *modelState[[][]looseNode])
		overflow bool // must fail in decoding, not in validation
	}{
		"bad version":       {corrupt: func(st *modelState[[][]looseNode]) { st.Version = 9 }},
		"zero width":        {corrupt: func(st *modelState[[][]looseNode]) { st.NumInputs = 0 }},
		"no trees":          {corrupt: func(st *modelState[[][]looseNode]) { st.Trees = nil }},
		"empty tree":        {corrupt: func(st *modelState[[][]looseNode]) { st.Trees = [][]looseNode{{}} }},
		"importance length": {corrupt: func(st *modelState[[][]looseNode]) { st.Importance = []float64{1} }},
		"feature range":     {corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Feature = 2 }},
		"backward child":    {corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Left = 0 }},
		"child overflow":    {corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Right = 9 }},
		"left beyond uint16": {
			corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Left = 65536 }, overflow: true,
		},
		"left wraps to a valid child": {
			corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Left = 65537 }, overflow: true,
		},
		"right beyond uint16": {
			corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Right = 70000 }, overflow: true,
		},
		"negative child": {
			corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Left = -1 }, overflow: true,
		},
		"feature beyond int32": {
			corrupt: func(st *modelState[[][]looseNode]) { st.Trees[0][0].Feature = math.MaxInt32 + 1 }, overflow: true,
		},
	} {
		st := valid
		st.Importance = append([]float64(nil), valid.Importance...)
		st.Trees = [][]looseNode{append([]looseNode(nil), valid.Trees[0]...)}
		tc.corrupt(&st)
		_, err := UnmarshalModel(mustJSON(t, st))
		if err == nil {
			t.Errorf("%s: corrupted artifact accepted", name)
			continue
		}
		var typeErr *json.UnmarshalTypeError
		if tc.overflow && !errors.As(err, &typeErr) {
			t.Errorf("%s: rejected by %v, want a decoding overflow", name, err)
		}
	}
	if _, err := UnmarshalModel([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// looseNode writes a node's artifact fields with room for values a node
// cannot hold.
type looseNode struct {
	Feature   int64   `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Value     float64 `json:"v"`
}

func mustJSON(t *testing.T, st modelState[[][]looseNode]) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestNodeSize pins the packed node: a loaded model holds one node per
// tree node of every replica's ensembles, so each byte here costs a byte
// per node.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Fatalf("node is %d bytes, want 24", got)
	}
}

// TestLoadedModelLayout: a loaded model keeps all its trees in one
// exact-size node array, each tree a view of it with no spare capacity,
// and scores every row bit-identically to the model that was saved.
func TestLoadedModelLayout(t *testing.T) {
	x, _ := synthGrid(120, 4)
	m := fitQuick(t, Config{Trees: 16, Seed: 4})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	total, capSum := 0, 0
	for i, tr := range back.trees {
		if cap(tr) != len(tr) {
			t.Fatalf("tree %d: cap %d, len %d", i, cap(tr), len(tr))
		}
		if !slices.Equal(tr, m.trees[i]) {
			t.Fatalf("tree %d: loaded nodes differ from the fitted ones", i)
		}
		// Each tree starts where the one before it ends.
		if i > 0 {
			prev := back.trees[i-1]
			end := unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(node{}))
			if end != unsafe.Pointer(&tr[0]) {
				t.Fatalf("tree %d does not follow tree %d in one array", i, i-1)
			}
		}
		total += len(m.trees[i])
		capSum += cap(tr)
	}
	if capSum != total {
		t.Fatalf("loaded trees hold %d node slots for %d nodes", capSum, total)
	}
	want, got := make([]float64, len(x)), make([]float64, len(x))
	m.PredictAllInto(want, x)
	back.PredictAllInto(got, x)
	wantMean, wantSpread := make([]float64, len(x)), make([]float64, len(x))
	gotMean, gotSpread := make([]float64, len(x)), make([]float64, len(x))
	m.PredictSpreadInto(wantMean, wantSpread, x)
	back.PredictSpreadInto(gotMean, gotSpread, x)
	for i, row := range x {
		if math.Float64bits(back.Predict(row)) != math.Float64bits(m.Predict(row)) ||
			math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
			math.Float64bits(gotMean[i]) != math.Float64bits(wantMean[i]) ||
			math.Float64bits(gotSpread[i]) != math.Float64bits(wantSpread[i]) {
			t.Fatalf("row %d: the loaded model scores differently from the fitted one", i)
		}
	}
}

// TestUnmarshalAllocsPerLoad pins what loading a TREE-B artifact
// allocates against what the model keeps: the trees stream through one
// reused buffer into one node array sized up front, so a load allocates
// at most 1.5 times its nodes' bytes. When encoding/json grew each
// tree's slice by doubling before the pack, a load of this 64-tree
// artifact allocated 3.6 times what it kept. Saving the loaded model
// must give back the artifact byte for byte.
func TestUnmarshalAllocsPerLoad(t *testing.T) {
	x, y := benchData(138, 24)
	m, err := Fit(context.Background(), x, y, Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	const loads = 10
	var back *Model
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range loads {
		if back, err = UnmarshalModel(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kept := 0
	for _, tr := range back.trees {
		kept += len(tr) * int(unsafe.Sizeof(node{}))
	}
	perLoad := float64(after.TotalAlloc-before.TotalAlloc) / loads
	t.Logf("%d trees: %.0f B allocated per load, %d B of nodes kept (%.2fx)", len(back.trees), perLoad, kept, perLoad/float64(kept))
	if perLoad > 1.5*float64(kept) {
		t.Fatalf("a load allocates %.0f B to keep %d B of nodes, want at most 1.5x", perLoad, kept)
	}
	again, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("saving the loaded model does not reproduce the artifact")
	}
}

// TestLoadRepacksMiscountedArtifact: the node array is sized by the
// count of '{' in the trees array, which a field MarshalJSON never writes
// can throw off. Such an artifact still loads the same trees, and the
// model keeps only its nodes' bytes, not the 10,000 extra slots the
// count asked for.
func TestLoadRepacksMiscountedArtifact(t *testing.T) {
	m := fitQuick(t, Config{Trees: 4, Seed: 3})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	odd := bytes.Replace(data, []byte(`"v":`), []byte(`"x":"`+strings.Repeat("{", 10000)+`","v":`), 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	back, err := UnmarshalModel(odd)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	nodes := 0
	for i, tr := range back.trees {
		if !slices.Equal(tr, m.trees[i]) {
			t.Fatalf("tree %d: loaded nodes differ from the fitted ones", i)
		}
		nodes += len(tr) * int(unsafe.Sizeof(node{}))
	}
	runtime.KeepAlive(back)
	if kept > int64(nodes)+16<<10 {
		t.Fatalf("the loaded model keeps %d B for %d B of nodes", kept, nodes)
	}
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
