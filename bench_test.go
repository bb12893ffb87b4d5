// Benchmarks that regenerate every table and figure of the paper's
// evaluation section at full fidelity (full 4608-point design space,
// recommended trace lengths, full neural training budgets). Each iteration
// reproduces the complete artifact, and key reproduced numbers are
// attached as benchmark metrics:
//
//	go test -bench=Figure2 -benchmem        # one figure
//	go test -bench=. -benchmem              # everything
//
// Substrate micro-benchmarks (cache access, simulation, model training)
// are at the bottom.
package perfpred

import (
	"context"
	"fmt"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/experiments"
	"perfpred/internal/linreg"
	"perfpred/internal/neural"
	"perfpred/internal/space"
	"perfpred/internal/specdata"
	"perfpred/internal/stat"
	"perfpred/internal/trace"
)

// fullCfg is the full-fidelity experiment configuration used by the
// table/figure benchmarks.
func fullCfg() experiments.Config {
	return experiments.Config{Seed: 1, EpochScale: 1.0}
}

// paperFractions are the sampling rates of Figures 2–6 and Table 3.
var paperFractions = []float64{0.01, 0.02, 0.03, 0.04, 0.05}

// benchSampledFigure regenerates one of Figures 2–6.
func benchSampledFigure(b *testing.B, bench string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSampledStudy(context.Background(), bench, paperFractions, core.SampledModels(), fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := s.Cell(0.01, core.NNE); ok {
			b.ReportMetric(c.TrueMAPE, "NN-E@1%err")
		}
		if c, ok := s.Cell(0.05, core.NNE); ok {
			b.ReportMetric(c.TrueMAPE, "NN-E@5%err")
		}
		if c, ok := s.Cell(0.01, core.LRB); ok {
			b.ReportMetric(c.TrueMAPE, "LR-B@1%err")
		}
	}
}

// BenchmarkFigure2Applu regenerates Figure 2 (applu: estimated vs. true
// error for NN-E, NN-S and LR-B at 1–5 % sampling).
func BenchmarkFigure2Applu(b *testing.B) { benchSampledFigure(b, "applu") }

// BenchmarkFigure3Equake regenerates Figure 3 (equake).
func BenchmarkFigure3Equake(b *testing.B) { benchSampledFigure(b, "equake") }

// BenchmarkFigure4Gcc regenerates Figure 4 (gcc).
func BenchmarkFigure4Gcc(b *testing.B) { benchSampledFigure(b, "gcc") }

// BenchmarkFigure5Mcf regenerates Figure 5 (mcf).
func BenchmarkFigure5Mcf(b *testing.B) { benchSampledFigure(b, "mcf") }

// BenchmarkFigure6Mesa regenerates Figure 6 (mesa).
func BenchmarkFigure6Mesa(b *testing.B) { benchSampledFigure(b, "mesa") }

// benchChronoPanel regenerates one panel of Figures 7–8 (all nine models
// on one family).
func benchChronoPanel(b *testing.B, family string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunChronoStudy(context.Background(), family, core.FigureModels(), fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.BestTrue, "best%err")
		var lre float64
		for _, rep := range s.Reports {
			if rep.Kind == core.LRE {
				lre = rep.TrueMAPE
			}
		}
		b.ReportMetric(lre, "LR-E%err")
	}
}

// BenchmarkFigure7Xeon regenerates Figure 7a.
func BenchmarkFigure7Xeon(b *testing.B) { benchChronoPanel(b, "Xeon") }

// BenchmarkFigure7Pentium4 regenerates Figure 7b.
func BenchmarkFigure7Pentium4(b *testing.B) { benchChronoPanel(b, "Pentium 4") }

// BenchmarkFigure7PentiumD regenerates Figure 7c.
func BenchmarkFigure7PentiumD(b *testing.B) { benchChronoPanel(b, "Pentium D") }

// BenchmarkFigure8Opteron regenerates Figure 8a.
func BenchmarkFigure8Opteron(b *testing.B) { benchChronoPanel(b, "Opteron") }

// BenchmarkFigure8Opteron2 regenerates Figure 8b.
func BenchmarkFigure8Opteron2(b *testing.B) { benchChronoPanel(b, "Opteron 2") }

// BenchmarkFigure8Opteron4 regenerates Figure 8c.
func BenchmarkFigure8Opteron4(b *testing.B) { benchChronoPanel(b, "Opteron 4") }

// BenchmarkFigure8Opteron8 regenerates Figure 8d.
func BenchmarkFigure8Opteron8(b *testing.B) { benchChronoPanel(b, "Opteron 8") }

// BenchmarkTable1DesignSpace enumerates and validates the 4608-point
// Table 1 design space.
func BenchmarkTable1DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfgs := space.Enumerate()
		if len(cfgs) != space.SpaceSize {
			b.Fatalf("space size %d", len(cfgs))
		}
		for j := range cfgs {
			if err := cfgs[j].CPUConfig().Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the best chronological accuracy and
// method for all seven system families.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := &experiments.Table2{}
		for _, fam := range specdata.Families() {
			s, err := experiments.RunChronoStudy(context.Background(), fam.Name, core.FigureModels(), fullCfg())
			if err != nil {
				b.Fatal(err)
			}
			t2.Studies = append(t2.Studies, s)
		}
		sum := 0.0
		for _, s := range t2.Studies {
			sum += s.BestTrue
		}
		b.ReportMetric(sum/float64(len(t2.Studies)), "avgBest%err")
	}
}

// BenchmarkTable3 regenerates Table 3: the cross-benchmark average sampled
// design-space error for LR-B / NN-E / NN-S / Select at 1–5 % sampling.
// This is the most expensive benchmark: it simulates the full design space
// for all five figured benchmarks and trains 375 models.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var studies []*experiments.SampledStudy
		for _, bench := range []string{"applu", "equake", "gcc", "mesa", "mcf"} {
			s, err := experiments.RunSampledStudy(context.Background(), bench, paperFractions, core.SampledModels(), fullCfg())
			if err != nil {
				b.Fatal(err)
			}
			studies = append(studies, s)
		}
		t3, err := experiments.ComputeTable3(studies)
		if err != nil {
			b.Fatal(err)
		}
		for fi, f := range t3.Fractions {
			b.ReportMetric(t3.SelectAvg[fi], fmt.Sprintf("Select@%.0f%%", 100*f))
		}
	}
}

// BenchmarkSection41Calibration regenerates the §4.1 statistics: the
// per-benchmark cycle range/variance over the design space and the SPEC
// family statistics.
func BenchmarkSection41Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		micro, err := experiments.RunMicroCalibration(context.Background(), fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range micro.Rows {
			if row.Name == "mcf" {
				b.ReportMetric(row.Range, "mcfRange")
			}
		}
		if _, err := experiments.RunSpecCalibration(context.Background(), fullCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection44Importance regenerates the §4.4 input-importance
// analysis for the Opteron and Pentium D families.
func BenchmarkSection44Importance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fam := range []string{"Opteron", "Pentium D"} {
			rep, err := experiments.RunImportance(context.Background(), fam, fullCfg())
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.NN) == 0 || len(rep.LR) == 0 {
				b.Fatal("empty importances")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkSimulateConfig measures one full-config simulation of a 100k
// instruction gcc trace (cache, TLB, predictor and pipeline model).
func BenchmarkSimulateConfig(b *testing.B) {
	prof, err := trace.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(prof, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := space.Enumerate()[0].CPUConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Simulate(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorMemoizedSweep measures sweeping 512 configurations
// with the memoizing evaluator (substrate passes shared).
func BenchmarkEvaluatorMemoizedSweep(b *testing.B) {
	prof, err := trace.ProfileByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(prof, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := space.Enumerate()[:512]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval, err := cpu.NewEvaluator(tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := space.Sweep(context.Background(), eval, cfgs, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, err := trace.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(prof, 100_000, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinregBackward measures one LR-B fit on a 200×24 design.
func BenchmarkLinregBackward(b *testing.B) {
	r := stat.NewRand(1)
	n, p := 200, 24
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = r.Float64()
		}
		y[i] = 3*x[i][0] - 2*x[i][1] + 0.5*x[i][2] + 0.05*r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linreg.Fit(x, y, nil, linreg.Options{Method: linreg.Backward}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeuralQuick measures one NN-Q training on 128 records of 24
// inputs.
func BenchmarkNeuralQuick(b *testing.B) {
	r := stat.NewRand(2)
	n, p := 128, 24
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = r.Float64()
		}
		y[i] = 0.2 + 0.5*x[i][0] + 0.2*x[i][1]*x[i][2]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := neural.Train(context.Background(), x, y, neural.Config{Method: neural.Quick, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateError measures the paper's five-fold error estimation
// for LR-B on a 128-record sample.
func BenchmarkEstimateError(b *testing.B) {
	full, err := SimulateDesignSpace(context.Background(), "applu", SimOptions{TraceLen: 60_000, Stride: 36})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateError(context.Background(), core.LRB, full, core.TrainConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDataset compares whole-space scoring (the Figure 1a
// "predict all 4608 points" step) through the engine's chunked parallel
// map against the naive sequential row-by-row loop it replaced.
func BenchmarkPredictDataset(b *testing.B) {
	ctx := context.Background()
	full, err := SimulateDesignSpace(ctx, "applu", SimOptions{TraceLen: 60_000, Stride: 4})
	if err != nil {
		b.Fatal(err)
	}
	p, err := Train(ctx, LRB, full, TrainConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.PredictDataset(ctx, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < full.Len(); j++ {
				if _, err := p.Predict(full.Row(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------
// Extension experiments and ablations (beyond the paper's published
// results; see EXPERIMENTS.md).

// BenchmarkExtensionPerApp predicts each CINT2000 application's runtime
// chronologically for the Pentium D family (the experiment the paper ran
// but omitted for space).
func BenchmarkExtensionPerApp(b *testing.B) {
	kinds := []core.ModelKind{core.LRE, core.LRB, core.NNQ}
	for i := 0; i < b.N; i++ {
		rate, err := experiments.RunChronoStudy(context.Background(), "Pentium D", kinds, fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		s, err := experiments.RunPerAppChrono(context.Background(), rate, fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range s.Results {
			if r.BestTrue > worst {
				worst = r.BestTrue
			}
		}
		b.ReportMetric(worst, "worstApp%err")
		b.ReportMetric(s.RateBest, "rate%err")
	}
}

// BenchmarkExtensionRolling trains on every year and predicts the next for
// the Opteron 2 family.
func BenchmarkExtensionRolling(b *testing.B) {
	kinds := []core.ModelKind{core.LRE, core.LRB, core.NNQ}
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunRollingChrono(context.Background(), "Opteron 2", kinds, fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := s.Results[len(s.Results)-1]
		b.ReportMetric(last.BestTrue, "2005to2006%err")
	}
}

// BenchmarkAblationSelectCriterion compares the paper's max-fold Select
// criterion against the mean-fold alternative at 2% sampling on mcf.
func BenchmarkAblationSelectCriterion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab, err := experiments.RunSelectAblation(context.Background(), "mcf", 0.02, core.SampledModels(), fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ab.MaxTrue, "maxPick%err")
		b.ReportMetric(ab.MeanTrue, "meanPick%err")
		b.ReportMetric(ab.BestTrue, "oracle%err")
	}
}

// BenchmarkAblationSamplingStrategy compares random sampling (the paper's
// method) against systematic stride sampling at the same budget (NN-E on
// gcc at 2%).
func BenchmarkAblationSamplingStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab, err := experiments.RunSamplingAblation(context.Background(), "gcc", 0.02, core.NNE, fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ab.RandomTrue, "random%err")
		b.ReportMetric(ab.SystematicTrue, "systematic%err")
	}
}

// BenchmarkAblationPrefetcher measures the next-line-prefetcher extension:
// it should speed up the streaming FP workload (applu) and do little for
// the pointer chaser (mcf).
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(bench string) (base, pf float64) {
		tr, err := trace.GenerateBenchmark(bench, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		eval, err := cpu.NewEvaluator(tr)
		if err != nil {
			b.Fatal(err)
		}
		cfg := space.Enumerate()[0].CPUConfig()
		r1, err := eval.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Mem.NextLinePrefetch = true
		r2, err := eval.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r1.Cycles, r2.Cycles
	}
	for i := 0; i < b.N; i++ {
		aBase, aPF := run("applu")
		mBase, mPF := run("mcf")
		b.ReportMetric(100*(aBase-aPF)/aBase, "applu%gain")
		b.ReportMetric(100*(mBase-mPF)/mBase, "mcf%gain")
	}
}

// BenchmarkExtensionCrossFamily quantifies the paper's rationale for
// per-family analysis: cross-family error dwarfs within-family error.
func BenchmarkExtensionCrossFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCrossFamily(context.Background(), "Xeon", "Opteron", core.LRE, fullCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WithinTrue, "within%err")
		b.ReportMetric(r.CrossTrue, "cross%err")
	}
}
