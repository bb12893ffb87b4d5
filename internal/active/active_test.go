package active

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/model"
	"perfpred/internal/stat"
)

// testSpace builds a small synthetic design space with every field kind
// the encoders handle.
func testSpace(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	s, err := dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
		dataset.Field{Name: "width", Kind: dataset.Numeric},
		dataset.Field{Name: "fast", Kind: dataset.Flag},
		dataset.Field{Name: "pred", Kind: dataset.Categorical, NumericLevels: map[string]float64{
			"weak": 1, "strong": 2,
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New(s)
	r := rand.New(rand.NewSource(seed))
	preds := []string{"weak", "strong"}
	for i := 0; i < n; i++ {
		size := 16 + float64(r.Intn(5))*16
		width := float64(2 + r.Intn(4)*2)
		fast := r.Intn(2) == 0
		pk := preds[r.Intn(2)]
		y := 10000/width + 2000*math.Exp(-size/32)
		if fast {
			y *= 0.9
		}
		if pk == "strong" {
			y *= 0.85
		}
		err := d.Append([]dataset.Value{
			dataset.Num(size), dataset.Num(width), dataset.FlagVal(fast), dataset.Cat(pk),
		}, y)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// stubModel predicts scale × (sum of encoded inputs) + bias — a linear
// surrogate with hand-computable outputs and no allocation.
type stubModel struct {
	width int
	scale float64
	bias  float64
}

func (m *stubModel) NumInputs() int { return m.width }

func (m *stubModel) PredictAllInto(dst []float64, x [][]float64, _ model.Scratch) {
	for i, row := range x {
		s := 0.0
		for _, v := range row {
			s += v
		}
		dst[i] = m.scale*s + m.bias
	}
}

func (m *stubModel) Importance(x [][]float64) ([]float64, error) {
	return make([]float64, m.width), nil
}

func (m *stubModel) Marshal() ([]byte, error) { return nil, errors.New("stub") }

// spreadModel is a stubModel that also reports a constant internal
// spread, exercising the Spreader path without training trees.
type spreadModel struct {
	stubModel
	spread float64
}

func (m *spreadModel) PredictSpreadInto(mean, spread []float64, x [][]float64) {
	m.PredictAllInto(mean, x, nil)
	for i := range spread {
		spread[i] = m.spread
	}
}

var stubFamily = model.Family{
	Name:       "STUB",
	Tag:        "stub/v1",
	NewScratch: func() model.Scratch { return nil },
}

// stubMember builds a committee member over enc with the given linear
// response.
func stubMember(name string, enc *dataset.Encoder, scale, bias float64) Member {
	return Member{
		Name:   name,
		Family: stubFamily,
		Model:  &stubModel{width: enc.NumColumns(), scale: scale, bias: bias},
		Enc:    enc,
	}
}

func spreadMember(name string, enc *dataset.Encoder, scale, bias, spread float64) Member {
	return Member{
		Name:   name,
		Family: stubFamily,
		Model: &spreadModel{
			stubModel: stubModel{width: enc.NumColumns(), scale: scale, bias: bias},
			spread:    spread,
		},
		Enc: enc,
	}
}

// lrEncoder fits a ForLR encoder (identity target transform) on d.
func lrEncoder(t testing.TB, d *dataset.Dataset) *dataset.Encoder {
	t.Helper()
	enc, err := dataset.FitEncoder(d, dataset.ForLR)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// encodeAll encodes every row of d under enc.
func encodeAll(t *testing.T, enc *dataset.Encoder, d *dataset.Dataset) [][]float64 {
	t.Helper()
	rows := make([][]float64, d.Len())
	for i := range rows {
		rows[i] = make([]float64, enc.NumColumns())
		if err := enc.EncodeRowInto(rows[i], d.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

func TestTopK(t *testing.T) {
	scores := []float64{1, 5, 5, 0, 9}
	if got, want := topK(scores, 3), []int{4, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("topK = %v, want %v (descending score, lowest index on ties)", got, want)
	}
	// A plateau must come out in index order.
	flat := make([]float64, 6)
	if got, want := topK(flat, 4), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("topK on plateau = %v, want %v", got, want)
	}
}

func TestCheckPicks(t *testing.T) {
	if err := checkPicks([]int{0, 2, 1}, 3, 5); err != nil {
		t.Fatalf("valid picks rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		picks []int
		k, n  int
	}{
		"short":    {[]int{0}, 2, 5},
		"long":     {[]int{0, 1, 2}, 2, 5},
		"dup":      {[]int{1, 1}, 2, 5},
		"negative": {[]int{-1, 0}, 2, 5},
		"overflow": {[]int{0, 5}, 2, 5},
	} {
		if err := checkPicks(tc.picks, tc.k, tc.n); err == nil {
			t.Errorf("%s: checkPicks(%v, %d, %d) accepted", name, tc.picks, tc.k, tc.n)
		}
	}
}

// TestScorerStats checks the law-of-total-variance decomposition against
// hand-computed values: two disagreeing linear members plus one member
// with constant internal spread.
func TestScorerStats(t *testing.T) {
	pool := testSpace(t, 40, 3)
	enc := lrEncoder(t, pool)
	rows := encodeAll(t, enc, pool)
	const spread = 0.5
	members := []Member{
		stubMember("A", enc, 1, 0),
		stubMember("B", enc, -1, 2),
		spreadMember("C", enc, 0, 1, spread),
	}
	scorer, err := NewScorer(members)
	if err != nil {
		t.Fatal(err)
	}
	n := pool.Len()
	mean := make([]float64, n)
	vari := make([]float64, n)
	ctx := engine.NewWorkerContext(context.Background())
	if err := scorer.ScoreChunk(ctx, pool, 0, n, mean, vari); err != nil {
		t.Fatal(err)
	}
	unit := enc.UnscaleTarget(1) - enc.UnscaleTarget(0)
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range rows[i] {
			s += v
		}
		preds := []float64{enc.UnscaleTarget(s), enc.UnscaleTarget(-s + 2), enc.UnscaleTarget(1)}
		mu := (preds[0] + preds[1] + preds[2]) / 3
		between := 0.0
		for _, p := range preds {
			between += (p - mu) * (p - mu)
		}
		between /= 3
		within := spread * unit * spread * unit / 3
		if math.Abs(mean[i]-mu) > 1e-9 {
			t.Fatalf("row %d: mean = %g, want %g", i, mean[i], mu)
		}
		if math.Abs(vari[i]-(between+within)) > 1e-9 {
			t.Fatalf("row %d: vari = %g, want %g (between %g + within %g)", i, vari[i], between+within, between, within)
		}
	}
}

func TestNewScorerRejectsBadMembers(t *testing.T) {
	pool := testSpace(t, 10, 3)
	enc := lrEncoder(t, pool)
	if _, err := NewScorer(nil); err == nil {
		t.Fatal("NewScorer accepted an empty committee")
	}
	if _, err := NewScorer([]Member{{Name: "X", Enc: enc}}); err == nil {
		t.Fatal("NewScorer accepted a member without a model")
	}
	bad := Member{Name: "X", Family: stubFamily, Model: &stubModel{width: enc.NumColumns() + 1}, Enc: enc}
	if _, err := NewScorer([]Member{bad}); err == nil {
		t.Fatal("NewScorer accepted a model/encoder width mismatch")
	}
}

// TestScoreAllDeterministic pins the parallel fan-out to the sequential
// chunk walk, bit for bit, at several worker counts.
func TestScoreAllDeterministic(t *testing.T) {
	pool := testSpace(t, 3*scoreParallelMin/2, 7) // big enough to take the parallel path
	enc := lrEncoder(t, pool)
	members := []Member{
		stubMember("A", enc, 1, 0),
		spreadMember("C", enc, 0.25, 1, 0.5),
	}
	scorer, err := NewScorer(members)
	if err != nil {
		t.Fatal(err)
	}
	n := pool.Len()
	ref := make([]float64, n)
	refV := make([]float64, n)
	ctx := engine.NewWorkerContext(context.Background())
	if err := scorer.ScoreChunk(ctx, pool, 0, n, ref, refV); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		mean := make([]float64, n)
		vari := make([]float64, n)
		err := scorer.ScoreAll(context.Background(), engine.Options{Workers: workers}, pool, mean, vari)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if mean[i] != ref[i] || vari[i] != refV[i] {
				t.Fatalf("workers=%d row %d: (%g, %g) != sequential (%g, %g)",
					workers, i, mean[i], vari[i], ref[i], refV[i])
			}
		}
	}
	if err := scorer.ScoreAll(context.Background(), engine.Options{}, pool, make([]float64, 1), make([]float64, 1)); err == nil {
		t.Fatal("ScoreAll accepted short buffers")
	}
}

// TestScoreChunkZeroAlloc pins the zero-allocation contract of the
// steady-state scoring path.
func TestScoreChunkZeroAlloc(t *testing.T) {
	pool := testSpace(t, scoreChunk, 11)
	enc := lrEncoder(t, pool)
	members := []Member{
		stubMember("A", enc, 1, 0),
		spreadMember("C", enc, 0.25, 1, 0.5),
	}
	scorer, err := NewScorer(members)
	if err != nil {
		t.Fatal(err)
	}
	n := pool.Len()
	mean := make([]float64, n)
	vari := make([]float64, n)
	ctx := engine.NewWorkerContext(context.Background())
	// Warm the worker-local scratch, then demand zero steady-state allocs.
	if err := scorer.ScoreChunk(ctx, pool, 0, n, mean, vari); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := scorer.ScoreChunk(ctx, pool, 0, n, mean, vari); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ScoreChunk allocates %v times per call, want 0", allocs)
	}
}

// TestAcquireEI pins the degenerate zero-variance case: a single exact
// member makes EI = max(best − μ, 0), so the picks are the lowest
// predicted targets.
func TestAcquireEI(t *testing.T) {
	pool := testSpace(t, 50, 9)
	labeled := testSpace(t, 20, 10)
	enc := lrEncoder(t, pool)
	rows := encodeAll(t, enc, pool)
	r := &Round{
		Pool:    pool,
		Labeled: labeled,
		Members: []Member{stubMember("A", enc, 1, 0)},
	}
	picks, err := acquireEI(context.Background(), r, 4)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i := 0; i < labeled.Len(); i++ {
		if y := labeled.Target(i); y < best {
			best = y
		}
	}
	scores := make([]float64, len(rows))
	for i, row := range rows {
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		scores[i] = expectedImprovement(best, enc.UnscaleTarget(mu), 0)
	}
	if want := topK(scores, 4); !reflect.DeepEqual(picks, want) {
		t.Fatalf("ei picks %v, want %v", picks, want)
	}
}

func TestExpectedImprovement(t *testing.T) {
	if got := expectedImprovement(10, 12, 0); got != 0 {
		t.Fatalf("EI with no uncertainty above best = %g, want 0", got)
	}
	if got := expectedImprovement(10, 7, 0); got != 3 {
		t.Fatalf("EI with no uncertainty below best = %g, want 3", got)
	}
	// Symmetric case: μ = best gives EI = σφ(0) = σ/√(2π).
	want := 2.0 / math.Sqrt(2*math.Pi)
	if got := expectedImprovement(10, 10, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EI at μ=best = %g, want %g", got, want)
	}
	// More uncertainty can only help.
	if expectedImprovement(10, 11, 1) >= expectedImprovement(10, 11, 3) {
		t.Fatal("EI not increasing in σ above the incumbent")
	}
}

// TestAcquireDeterministicAcrossWorkers pins the EI batch to be
// bit-identical at 1 and 8 workers, on a pool large enough to take the
// parallel scoring path.
func TestAcquireDeterministicAcrossWorkers(t *testing.T) {
	pool := testSpace(t, 3*scoreParallelMin/2, 17)
	labeled := testSpace(t, 30, 18)
	enc := lrEncoder(t, pool)
	members := []Member{
		stubMember("A", enc, 1, 0),
		stubMember("B", enc, -0.5, 1),
		spreadMember("C", enc, 0.25, 0.5, 0.3),
	}
	var ref []int
	for _, workers := range []int{1, 8} {
		r := &Round{
			Pool:    pool,
			Labeled: labeled,
			Members: members,
			Opts:    engine.Options{Workers: workers},
		}
		picks, err := acquireEI(context.Background(), r, 9)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if ref == nil {
			ref = picks
		} else if !reflect.DeepEqual(picks, ref) {
			t.Fatalf("workers=8 picks %v != workers=1 picks %v", picks, ref)
		}
	}
}

// TestAcquireEIAllocs pins one EI batch over BenchmarkAcquireEI's round
// (a 2048-point pool scored with Workers: 4) at exactly 42 allocations:
// 49 while engine.Map built one closure per scoring chunk. BENCH_10.json
// still records the 80 the batch made while its scoring chunks carried
// labels no hook read; benchdiff fails only on an increase, so this test
// is the exact pin. AllocsPerRun runs at GOMAXPROCS=1, the
// CPU count the snapshot was taken at. Under -race the path still runs but
// the count is not asserted: the race detector drops sync.Pool puts on
// purpose.
func TestAcquireEIAllocs(t *testing.T) {
	r := benchRound(t, 2048)
	acquire := func() {
		if _, err := acquireEI(context.Background(), r, 16); err != nil {
			panic(err)
		}
	}
	acquire()
	allocs := testing.AllocsPerRun(20, acquire)
	if !raceEnabled && allocs != 42 {
		t.Fatalf("EI acquisition allocates %.1f/op, want 42", allocs)
	}
}

// fixedCommittee is a TrainRound stub: deterministic, trains nothing.
func fixedCommittee(t *testing.T, full *dataset.Dataset) func(context.Context, *dataset.Dataset, int64) (*Committee, error) {
	enc, err := dataset.FitEncoder(full, dataset.ForLR)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, labeled *dataset.Dataset, roundSeed int64) (*Committee, error) {
		return &Committee{
			Members: []Member{
				stubMember("A", enc, 1, 0),
				stubMember("B", enc, -1, float64(roundSeed%7)),
			},
			Errors: []MemberError{{Name: "A", MAPE: 1}, {Name: "B", MAPE: 2}},
		}, nil
	}
}

func TestRunLoop(t *testing.T) {
	full := testSpace(t, 120, 19)
	initial := []int{3, 40, 77, 99}
	res, err := Run(context.Background(), full, initial, Config{
		Seed:       5,
		Rounds:     3,
		Batch:      6,
		Workers:    2,
		TrainRound: fixedCommittee(t, full),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(initial) + 3*6; len(res.LabeledIdx) != want {
		t.Fatalf("labeled %d points, want %d", len(res.LabeledIdx), want)
	}
	if !reflect.DeepEqual(res.LabeledIdx[:len(initial)], initial) {
		t.Fatalf("labeled prefix %v, want the initial sample %v", res.LabeledIdx[:4], initial)
	}
	// Round 1 acquires acquireEI's batch under round 1's committee.
	labeled, err := full.Subset(initial)
	if err != nil {
		t.Fatal(err)
	}
	pool, poolIdx, err := full.Complement(initial)
	if err != nil {
		t.Fatal(err)
	}
	com, err := fixedCommittee(t, full)(context.Background(), labeled, stat.DeriveSeed(5, 9001))
	if err != nil {
		t.Fatal(err)
	}
	picks, err := acquireEI(context.Background(), &Round{Pool: pool, Labeled: labeled, Members: com.Members}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range picks {
		if got := res.LabeledIdx[len(initial)+i]; got != poolIdx[p] {
			t.Fatalf("round 1 acquisition %d is row %d, want EI's pick %d", i, got, poolIdx[p])
		}
	}
	if len(res.LabeledIdx)+len(res.PoolIdx) != full.Len() {
		t.Fatalf("labeled %d + pool %d != space %d", len(res.LabeledIdx), len(res.PoolIdx), full.Len())
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int(nil), res.LabeledIdx...), res.PoolIdx...) {
		if i < 0 || i >= full.Len() || seen[i] {
			t.Fatalf("index %d out of range or repeated", i)
		}
		seen[i] = true
	}
	for i := 1; i < len(res.PoolIdx); i++ {
		if res.PoolIdx[i-1] >= res.PoolIdx[i] {
			t.Fatal("pool indices not in original order")
		}
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(res.Rounds))
	}
	for i, st := range res.Rounds {
		if st.Round != i+1 || st.Acquired != 6 {
			t.Fatalf("round %d stats off: %+v", i+1, st)
		}
		if st.LabeledBefore != len(initial)+i*6 || st.PoolBefore != full.Len()-st.LabeledBefore {
			t.Fatalf("round %d sizes off: %+v", i+1, st)
		}
		if len(st.Committee) != 2 {
			t.Fatalf("round %d committee trajectory missing: %+v", i+1, st)
		}
	}
}

// TestRunDrainsPool: the loop stops early when the pool runs dry and
// clips the last batch instead of failing.
func TestRunDrainsPool(t *testing.T) {
	full := testSpace(t, 20, 23)
	initial := []int{0, 1, 2, 3}
	res, err := Run(context.Background(), full, initial, Config{
		Seed:       5,
		Rounds:     10,
		Batch:      7,
		TrainRound: fixedCommittee(t, full),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LabeledIdx) != full.Len() || len(res.PoolIdx) != 0 {
		t.Fatalf("pool not drained: labeled %d, pool %d", len(res.LabeledIdx), len(res.PoolIdx))
	}
	if len(res.Rounds) != 3 { // 7 + 7 + 2 acquisitions
		t.Fatalf("executed %d rounds, want 3", len(res.Rounds))
	}
	if last := res.Rounds[2]; last.Acquired != 2 {
		t.Fatalf("final round acquired %d, want the 2 remaining", last.Acquired)
	}
}

func TestRunValidation(t *testing.T) {
	full := testSpace(t, 20, 29)
	train := fixedCommittee(t, full)
	base := Config{Seed: 1, Rounds: 2, Batch: 2, TrainRound: train}
	cases := map[string]func() error{
		"nil dataset": func() error {
			_, err := Run(context.Background(), nil, []int{0}, base)
			return err
		},
		"empty initial": func() error {
			_, err := Run(context.Background(), full, nil, base)
			return err
		},
		"zero rounds": func() error {
			cfg := base
			cfg.Rounds = 0
			_, err := Run(context.Background(), full, []int{0}, cfg)
			return err
		},
		"zero batch": func() error {
			cfg := base
			cfg.Batch = 0
			_, err := Run(context.Background(), full, []int{0}, cfg)
			return err
		},
		"nil TrainRound": func() error {
			cfg := base
			cfg.TrainRound = nil
			_, err := Run(context.Background(), full, []int{0}, cfg)
			return err
		},
	}
	for name, run := range cases {
		if run() == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	full := testSpace(t, 150, 31)
	initial := []int{5, 25, 50, 75, 100, 125}
	var ref *Result
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), full, initial, Config{
			Seed:       77,
			Rounds:     3,
			Batch:      5,
			Workers:    workers,
			TrainRound: fixedCommittee(t, full),
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.LabeledIdx, ref.LabeledIdx) || !reflect.DeepEqual(res.PoolIdx, ref.PoolIdx) {
			t.Fatalf("workers=8 trajectory differs from workers=1:\n%v\n%v", res.LabeledIdx, ref.LabeledIdx)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	full := testSpace(t, 40, 37)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, full, []int{0, 1}, Config{
		Seed: 1, Rounds: 2, Batch: 2, TrainRound: fixedCommittee(t, full),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
}

// TestRunTrainRoundError: a TrainRound that fails on round 2 aborts the
// loop, and the error names the round and wraps the callback's error.
func TestRunTrainRoundError(t *testing.T) {
	boom := errors.New("training failed")
	full := testSpace(t, 40, 41)
	train := fixedCommittee(t, full)
	calls := 0
	_, err := Run(context.Background(), full, []int{0, 1}, Config{
		Seed: 1, Rounds: 4, Batch: 2,
		TrainRound: func(ctx context.Context, labeled *dataset.Dataset, roundSeed int64) (*Committee, error) {
			if calls++; calls == 2 {
				return nil, boom
			}
			return train(ctx, labeled, roundSeed)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the callback's error", err)
	}
	if !strings.Contains(err.Error(), "round 2") {
		t.Fatalf("error %q does not name the failing round", err)
	}
	if calls != 2 {
		t.Fatalf("TrainRound called %d times, want the loop to stop at round 2", calls)
	}
}

// TestScoreAllEmitsKernelEvents: acquisition scoring reports its
// throughput to hooks like every other kernel.
func TestScoreAllEmitsKernelEvents(t *testing.T) {
	pool := testSpace(t, 3*scoreParallelMin/2, 43)
	enc := lrEncoder(t, pool)
	scorer, err := NewScorer([]Member{stubMember("A", enc, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// The hook runs on the engine's workers.
	var events, samples atomic.Int64
	hook := func(e engine.Event) {
		if e.Kind == engine.KernelTime && e.Label == "active score" {
			events.Add(1)
			samples.Add(e.Samples)
		}
	}
	n := pool.Len()
	err = scorer.ScoreAll(context.Background(), engine.Options{Workers: 4, Hook: hook}, pool, make([]float64, n), make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 || samples.Load() != int64(n) {
		t.Fatalf("kernel events %d covering %d samples, want >0 covering %d", events.Load(), samples.Load(), n)
	}
}
