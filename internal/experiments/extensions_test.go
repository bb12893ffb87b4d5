package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"perfpred/internal/core"
)

func TestRunPerAppChrono(t *testing.T) {
	cfg := fastCfg()
	kinds := []core.ModelKind{core.LRE, core.NNS}
	rate, err := RunChronoStudy(context.Background(), "Pentium D", kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunPerAppChrono(context.Background(), rate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 12 {
		t.Fatalf("%d apps, want 12", len(s.Results))
	}
	if s.RateBest <= 0 {
		t.Fatal("no rate reference")
	}
	for _, r := range s.Results {
		if r.BestTrue <= 0 || r.BestTrue > 50 {
			t.Fatalf("%s: implausible error %.2f", r.App, r.BestTrue)
		}
		if r.LRTrue <= 0 || r.NNTrue <= 0 {
			t.Fatalf("%s: family split missing", r.App)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "twolf") {
		t.Fatal("render missing an application")
	}
	if _, err := RunPerAppChrono(context.Background(), &ChronoStudy{Family: "Itanium", Reports: rate.Reports}, cfg); err == nil {
		t.Fatal("unknown family: want error")
	}
}

// TestPerAppAccuracyComparableToRate checks the paper's claim that
// individual applications "can also be accurately estimated": the median
// per-app best error should be in the same regime as the rate experiment.
func TestPerAppAccuracyComparableToRate(t *testing.T) {
	cfg := fastCfg()
	cfg.EpochScale = 0.4
	rate, err := RunChronoStudy(context.Background(), "Pentium D", []core.ModelKind{core.LRE, core.LRB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunPerAppChrono(context.Background(), rate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for _, r := range s.Results {
		if r.BestTrue > 4*s.RateBest+5 {
			over++
		}
	}
	if over > 3 {
		t.Fatalf("%d of 12 apps much worse than the rate experiment (%.2f%%)", over, s.RateBest)
	}
}

func TestRunRollingChrono(t *testing.T) {
	cfg := fastCfg()
	kinds := []core.ModelKind{core.LRE, core.LRB}
	s, err := RunRollingChrono(context.Background(), "Opteron 2", kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Opteron 2 has 2003..2006 → three adjacent pairs.
	if len(s.Results) != 3 {
		t.Fatalf("%d pairs", len(s.Results))
	}
	for _, r := range s.Results {
		if r.TestYear != r.TrainYear+1 {
			t.Fatalf("pair %d→%d not adjacent", r.TrainYear, r.TestYear)
		}
		if r.BestTrue <= 0 || r.BestTrue > 50 {
			t.Fatalf("%d→%d error %.2f implausible", r.TrainYear, r.TestYear, r.BestTrue)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2005→2006") {
		t.Fatalf("render missing final pair:\n%s", buf.String())
	}
	if _, err := RunRollingChrono(context.Background(), "Itanium", kinds, cfg); err == nil {
		t.Fatal("unknown family: want error")
	}
}

func TestRunSelectAblation(t *testing.T) {
	ab, err := RunSelectAblation(context.Background(), "applu", 0.3, []core.ModelKind{core.LRB, core.NNS}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ab.MaxTrue <= 0 || ab.MeanTrue <= 0 || ab.BestTrue <= 0 {
		t.Fatalf("degenerate ablation %+v", ab)
	}
	// Both criteria must pick an available model and cannot beat the oracle.
	if ab.MaxTrue < ab.BestTrue-1e-9 || ab.MeanTrue < ab.BestTrue-1e-9 {
		t.Fatalf("criterion beat the oracle: %+v", ab)
	}
}

func TestRunSamplingAblation(t *testing.T) {
	ab, err := RunSamplingAblation(context.Background(), "applu", 0.25, core.NNS, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ab.RandomTrue <= 0 || ab.SystematicTrue <= 0 {
		t.Fatalf("degenerate ablation %+v", ab)
	}
	if ab.Kind != core.NNS {
		t.Fatal("kind lost")
	}
}

// TestCrossFamilyDegrades reproduces the paper's §4.1 rationale for
// per-family analysis: a model trained on one family fails on another.
func TestCrossFamilyDegrades(t *testing.T) {
	cfg := fastCfg()
	r, err := RunCrossFamily(context.Background(), "Xeon", "Opteron", core.LRE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithinTrue <= 0 || r.CrossTrue <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	if r.CrossTrue < 3*r.WithinTrue {
		t.Fatalf("cross-family error %.2f should dwarf within-family %.2f", r.CrossTrue, r.WithinTrue)
	}
	if _, err := RunCrossFamily(context.Background(), "Itanium", "Xeon", core.LRE, cfg); err == nil {
		t.Fatal("unknown train family: want error")
	}
	if _, err := RunCrossFamily(context.Background(), "Xeon", "Itanium", core.LRE, cfg); err == nil {
		t.Fatal("unknown test family: want error")
	}
}

func TestRunLearningCurve(t *testing.T) {
	cfg := fastCfg()
	lc, err := RunLearningCurve(context.Background(), "applu", core.NNS, []float64{0.1, 0.3, 0.6}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.TrueMAPE) != 3 {
		t.Fatalf("%d points", len(lc.TrueMAPE))
	}
	for _, e := range lc.TrueMAPE {
		if e <= 0 || e > 60 {
			t.Fatalf("implausible error %v", e)
		}
	}
	// More data should not make things dramatically worse end-to-end.
	if lc.TrueMAPE[2] > 2*lc.TrueMAPE[0]+2 {
		t.Fatalf("error grew with data: %v", lc.TrueMAPE)
	}
	var buf bytes.Buffer
	if err := lc.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Learning curve") {
		t.Fatal("render missing title")
	}
	if _, err := RunLearningCurve(context.Background(), "applu", core.NNS, nil, cfg); err == nil {
		t.Fatal("no fractions: want error")
	}
}

func TestRunActiveStudy(t *testing.T) {
	cfg := fastCfg()
	cfg.SpaceStride = 8 // 576 points: a 6-point start, budgets of 12 and 30
	s, err := RunActiveStudy(context.Background(), []string{"applu"}, []int64{3}, core.SampledModels(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != len(s.Budgets)*len(s.Arms) {
		t.Fatalf("%d runs for %d budgets × %d arms", len(s.Runs), len(s.Budgets), len(s.Arms))
	}
	points := map[float64]int{}
	for _, r := range s.Runs {
		if p, ok := points[r.Budget]; ok && p != r.Points {
			t.Fatalf("%s at %.0f%% simulated %d points, random %d", r.Arm, 100*r.Budget, r.Points, p)
		}
		points[r.Budget] = r.Points
		for name, v := range map[string]float64{"selected": r.SelectedTrue, "gap": r.Gap, "regret": r.Regret} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%+v: non-finite %s", r, name)
			}
		}
		if r.SelectedTrue <= 0 || r.Regret < 0 {
			t.Fatalf("implausible run %+v", r)
		}
	}
	if points[0.02] != 12 || points[0.05] != 30 {
		t.Fatalf("budgets %v, want 12 and 30 points", points)
	}
	sum := s.Summary()
	if len(sum) != len(s.Budgets)*2 {
		t.Fatalf("%d summary rows, want one per budget for random and EI", len(sum))
	}
	for _, row := range sum {
		if row.Runs != 1 || row.MAPEWins > row.MAPEDiffer || row.RegretWins > row.RegretDiffer {
			t.Fatalf("summary row %+v", row)
		}
		if row.Arm == RandomArm && (row.MAPEDiffer != 0 || row.RegretDiffer != 0) {
			t.Fatalf("random differs from itself: %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ei regret%") {
		t.Fatalf("render missing the EI column:\n%s", buf.String())
	}
	if _, err := RunActiveStudy(context.Background(), nil, []int64{1}, core.SampledModels(), cfg); err == nil {
		t.Fatal("no apps: want error")
	}
}
