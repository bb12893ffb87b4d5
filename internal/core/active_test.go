package core

import (
	"context"
	"reflect"
	"testing"

	"perfpred/internal/tree"
)

func TestRunActiveDSEBasics(t *testing.T) {
	full := synthSpace(t, 400, 51)
	kinds := []ModelKind{LRB, NNQ}
	cfg := TrainConfig{Seed: 9, Workers: 4, EpochScale: 0.25}
	res, err := RunActiveDSE(context.Background(), full, 0.05, kinds, cfg, ActiveOptions{
		Rounds: 2, Batch: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialSize != 20 {
		t.Fatalf("InitialSize = %d, want 20 (5%% of 400)", res.InitialSize)
	}
	if want := 20 + 2*5; res.SampleSize != want {
		t.Fatalf("SampleSize = %d, want %d (initial + rounds×batch)", res.SampleSize, want)
	}
	if len(res.SampleIndices) != res.SampleSize {
		t.Fatalf("SampleIndices holds %d entries for SampleSize %d", len(res.SampleIndices), res.SampleSize)
	}
	if res.Complement == nil || res.Complement.Len() != full.Len()-res.SampleSize {
		t.Fatalf("Complement size off: %v", res.Complement)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(res.Rounds))
	}
	for i, r := range res.Rounds {
		if len(r.Committee) != len(kinds) {
			t.Fatalf("round %d trajectory has %d members, want %d", i+1, len(r.Committee), len(kinds))
		}
	}
	if len(res.Reports) != len(kinds) {
		t.Fatalf("final reports: %d, want %d", len(res.Reports), len(kinds))
	}

	// The initial sample must be exactly what RunSampledDSE draws at this
	// fraction and seed — the equal-budget comparability contract.
	sres, err := RunSampledDSE(context.Background(), full, 0.05, []ModelKind{LRB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.SampleIndices[:res.InitialSize], sres.SampleIndices) {
		t.Fatal("active initial sample diverges from the sampled-DSE draw at equal seed")
	}
}

func TestRunActiveDSEDefaults(t *testing.T) {
	full := synthSpace(t, 400, 53)
	cfg := TrainConfig{Seed: 3, Workers: 4, EpochScale: 0.25}
	res, err := RunActiveDSE(context.Background(), full, 0.05, []ModelKind{LRB}, cfg, ActiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: 4 rounds, batch = initial/rounds — the run doubles the
	// initial budget.
	if len(res.Rounds) != 4 {
		t.Fatalf("default rounds = %d, want 4", len(res.Rounds))
	}
	if want := res.InitialSize + 4*(res.InitialSize/4); res.SampleSize != want {
		t.Fatalf("default budget: SampleSize = %d, want %d", res.SampleSize, want)
	}
}

func TestRunActiveDSEErrors(t *testing.T) {
	full := synthSpace(t, 200, 57)
	cfg := TrainConfig{Seed: 3, Workers: 2, EpochScale: 0.25}
	if _, err := RunActiveDSE(context.Background(), nil, 0.1, []ModelKind{LRB}, cfg, ActiveOptions{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := RunActiveDSE(context.Background(), full, 0.1, nil, cfg, ActiveOptions{}); err == nil {
		t.Fatal("empty kind list accepted")
	}
}

// TestRunActiveDSETreeBCommittee smoke-runs the full workflow with
// TREE-B in the committee, so EI's posterior takes the per-tree
// Spreader path.
func TestRunActiveDSETreeBCommittee(t *testing.T) {
	full := synthSpace(t, 400, 59)
	kinds := []ModelKind{LRB, tree.KindTreeB}
	cfg := TrainConfig{Seed: 5, Workers: 4, EpochScale: 0.25}
	res, err := RunActiveDSE(context.Background(), full, 0.05, kinds, cfg, ActiveOptions{
		Rounds: 2, Batch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != res.InitialSize+8 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
}

// TestActiveDSEDeterministicAcrossWorkers pins the whole active workflow
// — initial draw, per-round committees, acquisitions, final reports — to
// be bit-identical at 1 and 8 workers.
func TestActiveDSEDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the active workflow twice")
	}
	full := synthSpace(t, 400, 61)
	kinds := []ModelKind{LRB, NNQ}
	var ref *ActiveDSEResult
	for _, workers := range []int{1, 8} {
		cfg := TrainConfig{Seed: 21, Workers: workers, EpochScale: 0.25}
		res, err := RunActiveDSE(context.Background(), full, 0.05, kinds, cfg, ActiveOptions{
			Rounds: 3, Batch: 4,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Timings are measurements and Predictor handles are per-run
		// pointers; blank both before the bit-exact comparison.
		for i := range res.Rounds {
			res.Rounds[i].TrainSeconds, res.Rounds[i].AcquireSeconds = 0, 0
		}
		for i := range res.Reports {
			res.Reports[i].Predictor = nil
		}
		res.Complement = nil // same indices ⇒ same dataset; skip deep compare
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.SampleIndices, ref.SampleIndices) {
			t.Fatalf("workers=8 acquisition trajectory differs:\n%v\n%v", res.SampleIndices, ref.SampleIndices)
		}
		if !reflect.DeepEqual(res.Rounds, ref.Rounds) {
			t.Fatalf("workers=8 round stats differ:\n%+v\n%+v", res.Rounds, ref.Rounds)
		}
		if !reflect.DeepEqual(res.Reports, ref.Reports) {
			t.Fatalf("workers=8 final reports differ:\n%+v\n%+v", res.Reports, ref.Reports)
		}
		if res.Selected != ref.Selected || res.SelectedTrueMAPE != ref.SelectedTrueMAPE {
			t.Fatalf("workers=8 selection differs: %v/%v vs %v/%v",
				res.Selected, res.SelectedTrueMAPE, ref.Selected, ref.SelectedTrueMAPE)
		}
	}
}

// TestGoldenActiveLearningCurve is the equal-budget learning-curve
// regression: 90 simulated points of the 900-point synthetic space,
// spent either as one random draw (RunSampledDSE at 10 %) or as a 45-
// point random seed plus 3 rounds × 15 expected-improvement acquisitions
// (RunActiveDSE at 5 %). The EI run must select a model at least as good
// as the random baseline's, and its trajectory is pinned bit-exactly.
func TestGoldenActiveLearningCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run trains committees over three rounds")
	}
	full := synthSpace(t, 900, 77)
	kinds := []ModelKind{LRB, NNQ, NNS}
	cfg := TrainConfig{Seed: 123, Workers: 4, EpochScale: 0.25}

	rnd, err := RunSampledDSE(context.Background(), full, 0.1, kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.SampleSize != 90 || rnd.SelectedTrueMAPE != 8.3735666472565757 {
		t.Fatalf("random baseline moved: %d points, selected %v at %.17g",
			rnd.SampleSize, rnd.Selected, rnd.SelectedTrueMAPE)
	}

	act, err := RunActiveDSE(context.Background(), full, 0.05, kinds, cfg, ActiveOptions{
		Rounds: 3, Batch: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if act.InitialSize != 45 || act.SampleSize != 90 {
		t.Fatalf("budget off: initial %d, final %d, want 45 and 90", act.InitialSize, act.SampleSize)
	}
	if act.SelectedTrueMAPE > rnd.SelectedTrueMAPE {
		t.Errorf("selected true error %.17g worse than random %.17g at equal budget",
			act.SelectedTrueMAPE, rnd.SelectedTrueMAPE)
	}
	if act.Selected != NNQ {
		t.Errorf("Selected = %v, want NN-Q", act.Selected)
	}
	if act.SelectedTrueMAPE != 6.3217199738148215 {
		t.Errorf("SelectedTrueMAPE = %.17g, want 6.3217199738148215", act.SelectedTrueMAPE)
	}
	wantCurve := []struct {
		labeled int
		nnqTrue float64
	}{
		{45, 8.6371874053856832},
		{60, 6.9306918897102445},
		{75, 9.6634974735753438},
	}
	if len(act.Rounds) != len(wantCurve) {
		t.Fatalf("ran %d rounds, want %d", len(act.Rounds), len(wantCurve))
	}
	for i, want := range wantCurve {
		r := act.Rounds[i]
		if r.LabeledBefore != want.labeled {
			t.Errorf("round %d: labeled %d, want %d", i+1, r.LabeledBefore, want.labeled)
		}
		found := false
		for _, c := range r.Committee {
			if c.Name == "NN-Q" {
				found = true
				if c.MAPE != want.nnqTrue {
					t.Errorf("round %d: NN-Q trajectory %.17g, want %.17g", i+1, c.MAPE, want.nnqTrue)
				}
			}
		}
		if !found {
			t.Errorf("round %d: NN-Q missing from committee trajectory", i+1)
		}
	}
	checkGoldenReports(t, "active", act.Reports, []goldenReport{
		{LRB, 17.137164072379203, 19.76199921962715, 19.91021833969215, 12.591377621694839},
		{NNQ, 11.643372746897098, 13.168132476492936, 6.3217199738148215, 4.8606228891108572},
		{NNS, 19.220922833360689, 22.825979268615868, 9.684105375559092, 7.3447584752333226},
	})
}

func TestSampledDSEComplement(t *testing.T) {
	full := synthSpace(t, 300, 63)
	cfg := TrainConfig{Seed: 7, Workers: 4, EpochScale: 0.25}
	res, err := RunSampledDSE(context.Background(), full, 0.1, []ModelKind{LRB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SampleIndices) != res.SampleSize {
		t.Fatalf("SampleIndices holds %d entries for SampleSize %d", len(res.SampleIndices), res.SampleSize)
	}
	if res.Complement == nil || res.Complement.Len() != full.Len()-res.SampleSize {
		t.Fatalf("Complement has %d rows, want %d", res.Complement.Len(), full.Len()-res.SampleSize)
	}
	seen := map[int]bool{}
	for _, i := range res.SampleIndices {
		seen[i] = true
	}
	// Complement targets must be exactly the unsampled rows' targets, in
	// original order.
	j := 0
	for i := 0; i < full.Len(); i++ {
		if seen[i] {
			continue
		}
		if res.Complement.Target(j) != full.Target(i) {
			t.Fatalf("complement row %d is not full row %d", j, i)
		}
		j++
	}
}

// TestBuildActiveDSEReport: the active report carries the sampled-DSE
// sections plus a validating Active trajectory.
func TestBuildActiveDSEReport(t *testing.T) {
	full := synthSpace(t, 300, 67)
	cfg := TrainConfig{Seed: 11, Workers: 4, EpochScale: 0.25}
	res, err := RunActiveDSE(context.Background(), full, 0.05, []ModelKind{LRB, NNQ}, cfg, ActiveOptions{
		Rounds: 2, Batch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildActiveDSEReport(res, ReportMeta{Command: "dse", Target: "synth", Seed: 11, SpaceSize: full.Len()}, nil)
	if err := rep.Validate(); err != nil {
		t.Fatalf("active report invalid: %v", err)
	}
	if rep.Active == nil {
		t.Fatal("report lacks the active section")
	}
	if rep.Active.InitialSize != res.InitialSize ||
		rep.Active.FinalSize != res.SampleSize ||
		rep.Active.PoolSize != res.Complement.Len() {
		t.Fatalf("active section %+v does not match result (initial %d, final %d, pool %d)",
			rep.Active, res.InitialSize, res.SampleSize, res.Complement.Len())
	}
	if len(rep.Active.Rounds) != len(res.Rounds) {
		t.Fatalf("report carries %d rounds, want %d", len(rep.Active.Rounds), len(res.Rounds))
	}
	for i, r := range rep.Active.Rounds {
		src := res.Rounds[i]
		if r.Round != src.Round || r.LabeledBefore != src.LabeledBefore ||
			r.PoolBefore != src.PoolBefore || r.Acquired != src.Acquired ||
			len(r.Committee) != len(src.Committee) {
			t.Fatalf("round %d: report %+v != result %+v", i+1, r, src)
		}
		for j, c := range r.Committee {
			if c.Kind != src.Committee[j].Name || c.TrueMAPE != src.Committee[j].MAPE {
				t.Fatalf("round %d member %d: report %+v != result %+v", i+1, j, c, src.Committee[j])
			}
		}
	}
	if rep.SampleSize != res.SampleSize || rep.Selected != res.Selected.String() {
		t.Fatal("sampled-DSE sections missing from the active report")
	}
}
