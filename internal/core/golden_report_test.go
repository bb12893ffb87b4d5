package core

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfpred/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden RunReport fixture from the current run")

// goldenReportFixture is the checked-in RunReport of the canonical
// fixed-seed sampled-DSE run. Regenerate with:
//
//	go test ./internal/core -run TestGoldenRunReport -update
const goldenReportFixture = "testdata/golden_dse_report.json"

// goldenDSERun executes the canonical sampled-DSE configuration (the
// same one TestGoldenSampledDSE pins) with a Recorder attached and
// returns the resulting report.
func goldenDSERun(t *testing.T, workers int) (*obs.RunReport, *obs.Recorder) {
	t.Helper()
	full := synthSpace(t, 900, 77)
	kinds := []ModelKind{LRE, LRB, NNQ, NNS}
	rec := obs.NewRecorder()
	cfg := TrainConfig{Seed: 123, Workers: workers, EpochScale: 0.25, Hook: rec.Hook()}
	res, err := RunSampledDSE(context.Background(), full, 0.1, kinds, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	meta := ReportMeta{Command: "dse", Target: "synthetic", Seed: 123, Workers: workers,
		EpochScale: 0.25, SpaceSize: full.Len()}
	return BuildDSEReport(res, meta, rec), rec
}

// normalizeReport strips everything a re-run legitimately changes —
// wall-clock timing, execution statistics, and the worker count —
// leaving only the statistical content the fixture pins.
func normalizeReport(rep *obs.RunReport) *obs.RunReport {
	n := *rep
	n.Workers = 0
	n.WallClock = obs.WallClock{}
	n.Execution = nil
	return &n
}

// checkReportStats compares the statistical content of two reports
// within a tight relative epsilon. The run itself is bit-deterministic,
// but the fixture passes through decimal JSON, so exact float equality
// is not guaranteed by the encoding; 1e-9 relative is far below any
// drift a model change would cause and far above round-trip noise.
func checkReportStats(t *testing.T, got, want *obs.RunReport) {
	t.Helper()
	const eps = 1e-9
	approx := func(field string, g, w float64) {
		if relErr(g, w) > eps {
			t.Errorf("%s = %.17g, fixture has %.17g", field, g, w)
		}
	}
	if got.Version != want.Version || got.Command != want.Command || got.Seed != want.Seed {
		t.Errorf("header drift: got {v%d %q seed %d}, fixture {v%d %q seed %d}",
			got.Version, got.Command, got.Seed, want.Version, want.Command, want.Seed)
	}
	approx("epoch_scale", got.EpochScale, want.EpochScale)
	approx("fraction", got.Fraction, want.Fraction)
	if got.SampleSize != want.SampleSize || got.SpaceSize != want.SpaceSize {
		t.Errorf("sizes: got sample=%d space=%d, fixture sample=%d space=%d",
			got.SampleSize, got.SpaceSize, want.SampleSize, want.SpaceSize)
	}
	if got.Selected != want.Selected {
		t.Errorf("Selected = %q, fixture has %q", got.Selected, want.Selected)
	}
	approx("selected_true_mape", got.SelectedTrueMAPE, want.SelectedTrueMAPE)
	if len(got.Models) != len(want.Models) {
		t.Fatalf("%d models, fixture has %d", len(got.Models), len(want.Models))
	}
	for i, w := range want.Models {
		g := got.Models[i]
		if g.Kind != w.Kind {
			t.Errorf("model[%d] kind %q, fixture has %q", i, g.Kind, w.Kind)
			continue
		}
		approx(g.Kind+".estimate_mean", g.EstimateMean, w.EstimateMean)
		approx(g.Kind+".estimate_max", g.EstimateMax, w.EstimateMax)
		approx(g.Kind+".true_mape", g.TrueMAPE, w.TrueMAPE)
		approx(g.Kind+".std_ape", g.StdAPE, w.StdAPE)
		if len(g.EstimatePerFold) != len(w.EstimatePerFold) {
			t.Errorf("model %s: %d folds, fixture has %d", g.Kind, len(g.EstimatePerFold), len(w.EstimatePerFold))
			continue
		}
		for f := range w.EstimatePerFold {
			approx(g.Kind+".per_fold", g.EstimatePerFold[f], w.EstimatePerFold[f])
		}
	}
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestGoldenRunReport is the statistical regression harness: the full
// observability pipeline (engine Hook → Recorder → RunReport) must
// reproduce the checked-in per-model CV errors and true MAPEs of the
// canonical run at any worker count, and the execution counts the
// Recorder aggregates must be identical serially and wide.
func TestGoldenRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run trains four models twice")
	}
	serialRep, serialRec := goldenDSERun(t, 1)

	if *updateGolden {
		norm := normalizeReport(serialRep)
		if err := os.MkdirAll(filepath.Dir(goldenReportFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := norm.WriteFile(goldenReportFixture); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenReportFixture)
	}

	want, err := obs.ReadReportFile(goldenReportFixture)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	checkReportStats(t, normalizeReport(serialRep), want)

	// The report must also validate as a well-formed artifact.
	if err := serialRep.Validate(); err != nil {
		t.Errorf("live report invalid: %v", err)
	}

	wideRep, wideRec := goldenDSERun(t, 8)
	checkReportStats(t, normalizeReport(wideRep), want)

	// Scheduling cannot leak into what the Recorder counted: task, fold,
	// epoch-event, and per-model totals agree between 1 and 8 workers.
	sc, wc := serialRec.Execution().Counts(), wideRec.Execution().Counts()
	if !reflect.DeepEqual(sc, wc) {
		t.Errorf("execution counts differ across worker counts:\nserial %v\nwide   %v", sc, wc)
	}
	if sc["tasks_failed"] != 0 {
		t.Errorf("golden run recorded %d failed tasks", sc["tasks_failed"])
	}
	if sc["tasks_done"] == 0 || sc["epoch_events"] == 0 {
		t.Errorf("recorder saw no work: counts %v", sc)
	}
}
