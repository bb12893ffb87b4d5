package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"perfpred/internal/core"
	"perfpred/internal/space"
	"perfpred/internal/specdata"
	"perfpred/internal/stat"
)

// The experiments in this file go beyond the paper's published results:
// per-application chronological prediction (which the paper ran but
// omitted for space), rolling multi-year chronological prediction, and
// two ablations of design choices the framework makes (the Select rule's
// max-vs-mean criterion, and random vs. systematic space sampling).

// PerAppResult is one application's chronological outcome.
type PerAppResult struct {
	App      string
	Best     core.ModelKind
	BestTrue float64
	// LRTrue / NNTrue are the best linear and best neural errors, to keep
	// the LR-vs-NN comparison visible per application.
	LRTrue, NNTrue float64
}

// PerAppStudy is the per-application chronological experiment for one
// family.
type PerAppStudy struct {
	Family  string
	Results []PerAppResult
	// RateBest is the family's best error when predicting the overall
	// SPEC rate (the published experiment), for comparison.
	RateBest float64
}

// RunPerAppChrono predicts each of the twelve CINT2000 application
// runtimes chronologically (2005 → 2006) for the family of a rate study,
// with the rate study's models, and reports the rate study's best error
// beside them.
func RunPerAppChrono(ctx context.Context, rate *ChronoStudy, cfg Config) (*PerAppStudy, error) {
	fam, err := specdata.FamilyByName(rate.Family)
	if err != nil {
		return nil, err
	}
	recs, err := specdata.Generate(fam, cfg.seed())
	if err != nil {
		return nil, err
	}
	kinds := make([]core.ModelKind, len(rate.Reports))
	for i, rep := range rate.Reports {
		kinds[i] = rep.Kind
	}
	study := &PerAppStudy{Family: rate.Family, RateBest: rate.BestTrue}
	for _, app := range specdata.IntApps() {
		train, err := specdata.BuildAppDataset(recs, app, 2005)
		if err != nil {
			return nil, err
		}
		future, err := specdata.BuildAppDataset(recs, app, 2006)
		if err != nil {
			return nil, err
		}
		res, err := core.RunChronological(ctx, train, future, kinds, cfg.trainCfg())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", rate.Family, app, err)
		}
		r := PerAppResult{App: app, Best: res.Best, BestTrue: res.BestTrueMAPE}
		r.LRTrue, r.NNTrue = bestByFamily(res.Reports)
		study.Results = append(study.Results, r)
	}
	return study, nil
}

// bestByFamily returns the best linear and best neural true errors.
func bestByFamily(reports []core.ModelReport) (lr, nn float64) {
	lr, nn = -1, -1
	for _, rep := range reports {
		if rep.Kind.IsNeural() {
			if nn < 0 || rep.TrueMAPE < nn {
				nn = rep.TrueMAPE
			}
		} else {
			if lr < 0 || rep.TrueMAPE < lr {
				lr = rep.TrueMAPE
			}
		}
	}
	return lr, nn
}

// WriteText renders the per-application study.
func (s *PerAppStudy) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Per-application chronological predictions - %s (rate experiment best: %.2f%%)\n",
		s.Family, s.RateBest)
	fmt.Fprintln(tw, "application\tbest\terror%\tbest LR\tbest NN")
	for _, r := range s.Results {
		fmt.Fprintf(tw, "%s\t%v\t%.2f\t%.2f\t%.2f\n", r.App, r.Best, r.BestTrue, r.LRTrue, r.NNTrue)
	}
	return tw.Flush()
}

// RollingResult is one year-pair outcome.
type RollingResult struct {
	TrainYear, TestYear int
	TrainSize, TestSize int
	Best                core.ModelKind
	BestTrue            float64
}

// RollingStudy is the multi-year chronological extension: every adjacent
// year pair a family has data for, not just 2005 → 2006.
type RollingStudy struct {
	Family  string
	Results []RollingResult
}

// RunRollingChrono trains on each year Y and predicts year Y+1 for every
// adjacent pair in the family's history.
func RunRollingChrono(ctx context.Context, family string, kinds []core.ModelKind, cfg Config) (*RollingStudy, error) {
	fam, err := specdata.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	recs, err := specdata.Generate(fam, cfg.seed())
	if err != nil {
		return nil, err
	}
	years := fam.Years()
	if len(years) < 2 {
		return nil, fmt.Errorf("experiments: family %s has only %d years", family, len(years))
	}
	study := &RollingStudy{Family: family}
	for i := 0; i+1 < len(years); i++ {
		train, err := specdata.BuildDataset(recs, years[i])
		if err != nil {
			return nil, err
		}
		future, err := specdata.BuildDataset(recs, years[i+1])
		if err != nil {
			return nil, err
		}
		res, err := core.RunChronological(ctx, train, future, kinds, cfg.trainCfg())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %d→%d: %w", family, years[i], years[i+1], err)
		}
		study.Results = append(study.Results, RollingResult{
			TrainYear: years[i], TestYear: years[i+1],
			TrainSize: train.Len(), TestSize: future.Len(),
			Best: res.Best, BestTrue: res.BestTrueMAPE,
		})
	}
	return study, nil
}

// WriteText renders the rolling study.
func (s *RollingStudy) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Rolling chronological predictions - %s\n", s.Family)
	fmt.Fprintln(tw, "train→test\trecords\tbest\terror%")
	for _, r := range s.Results {
		fmt.Fprintf(tw, "%d→%d\t%d/%d\t%v\t%.2f\n",
			r.TrainYear, r.TestYear, r.TrainSize, r.TestSize, r.Best, r.BestTrue)
	}
	return tw.Flush()
}

// SelectAblation compares the paper's max-fold Select criterion against
// the mean-fold alternative on one benchmark.
type SelectAblation struct {
	Bench    string
	Fraction float64
	// MaxTrue / MeanTrue are the true errors of the models each criterion
	// picks; BestTrue is the oracle (best available model).
	MaxTrue, MeanTrue, BestTrue float64
	MaxPick, MeanPick           core.ModelKind
}

// RunSelectAblation runs one sampled-DSE experiment and applies both
// selection criteria to the same reports.
func RunSelectAblation(ctx context.Context, bench string, frac float64, kinds []core.ModelKind, cfg Config) (*SelectAblation, error) {
	_, cfgs, cycles, err := space.SweepBenchmark(ctx, bench, cfg.TraceLen, cfg.seed(), cfg.SpaceStride, cfg.engineOpts())
	if err != nil {
		return nil, err
	}
	full, err := space.BuildDataset(cfgs, cycles)
	if err != nil {
		return nil, err
	}
	res, err := core.RunSampledDSE(ctx, full, frac, kinds, cfg.trainCfg())
	if err != nil {
		return nil, err
	}
	ab := &SelectAblation{Bench: bench, Fraction: frac}
	bestMax, bestMean := -1.0, -1.0
	ab.BestTrue = -1
	for _, rep := range res.Reports {
		if bestMax < 0 || rep.Estimate.Max < bestMax {
			bestMax = rep.Estimate.Max
			ab.MaxTrue = rep.TrueMAPE
			ab.MaxPick = rep.Kind
		}
		if bestMean < 0 || rep.Estimate.Mean < bestMean {
			bestMean = rep.Estimate.Mean
			ab.MeanTrue = rep.TrueMAPE
			ab.MeanPick = rep.Kind
		}
		if ab.BestTrue < 0 || rep.TrueMAPE < ab.BestTrue {
			ab.BestTrue = rep.TrueMAPE
		}
	}
	return ab, nil
}

// SamplingAblation compares random sampling (the paper's choice) against
// systematic stride sampling at equal budget.
type SamplingAblation struct {
	Bench          string
	Fraction       float64
	Kind           core.ModelKind
	RandomTrue     float64
	SystematicTrue float64
}

// RunSamplingAblation trains the same model kind on a random sample and on
// a same-size systematic sample of the space and compares true errors.
func RunSamplingAblation(ctx context.Context, bench string, frac float64, kind core.ModelKind, cfg Config) (*SamplingAblation, error) {
	_, cfgs, cycles, err := space.SweepBenchmark(ctx, bench, cfg.TraceLen, cfg.seed(), cfg.SpaceStride, cfg.engineOpts())
	if err != nil {
		return nil, err
	}
	full, err := space.BuildDataset(cfgs, cycles)
	if err != nil {
		return nil, err
	}
	tc := cfg.trainCfg()

	// Random sample (the paper's method).
	randomSample, _, err := full.SampleFraction(stat.NewRand(stat.DeriveSeed(cfg.seed(), 31)), frac)
	if err != nil {
		return nil, err
	}
	pRand, err := core.Train(ctx, kind, randomSample, tc)
	if err != nil {
		return nil, err
	}
	randTrue, _, err := pRand.Evaluate(ctx, full)
	if err != nil {
		return nil, err
	}

	// Systematic sample of the same size: every (n/k)-th configuration.
	k := randomSample.Len()
	idx := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx = append(idx, i*full.Len()/k)
	}
	sysSample, err := full.Subset(idx)
	if err != nil {
		return nil, err
	}
	pSys, err := core.Train(ctx, kind, sysSample, tc)
	if err != nil {
		return nil, err
	}
	sysTrue, _, err := pSys.Evaluate(ctx, full)
	if err != nil {
		return nil, err
	}

	return &SamplingAblation{
		Bench: bench, Fraction: frac, Kind: kind,
		RandomTrue: randTrue, SystematicTrue: sysTrue,
	}, nil
}

// The active-learning study's two arms: the paper's one-shot random
// sample (RunSampledDSE) and expected-improvement acquisition
// (RunActiveDSE).
const (
	RandomArm = "random"
	EIArm     = "ei"
)

// activeStart is every active arm's random start, as a fraction of the
// space; each acquisition round then simulates as many points again.
const activeStart = 0.01

// ActiveRun is one (application, seed, budget, arm) outcome of the
// active-learning study.
type ActiveRun struct {
	App  string
	Seed int64
	// Budget is the sampling rate the arm's simulation budget matches.
	Budget float64
	Arm    string
	// Points is the number of simulated design points the arm trained on.
	Points int
	// SelectedTrue is the true MAPE of the model the Select rule picked.
	SelectedTrue float64
	// Gap is that model's estimated error (the max-fold error Select
	// ranks by) minus its true MAPE. An acquired sample is not i.i.d.,
	// so the cross-validated estimate may be biased.
	Gap float64
	// Regret is the best labeled point's simulated cycles over the
	// space's true optimum, minus one, in percent.
	Regret float64
}

// ActiveStudy compares random sampling against model-guided acquisition
// at equal simulation budget on the simulated design spaces.
type ActiveStudy struct {
	Apps    []string
	Seeds   []int64
	Budgets []float64
	// Arms is RandomArm, then EIArm.
	Arms []string
	Runs []ActiveRun
}

// RunActiveStudy simulates each application's design space once, then
// for every seed and budget (2 % and 5 % of the space) runs the random
// arm (RunSampledDSE) and the EI arm (RunActiveDSE from a 1 % random
// start plus 1 or 4 rounds of 1 % each) on the same number of points.
func RunActiveStudy(ctx context.Context, apps []string, seeds []int64, kinds []core.ModelKind, cfg Config) (*ActiveStudy, error) {
	if len(apps) == 0 || len(seeds) == 0 || len(kinds) == 0 {
		return nil, errors.New("experiments: active study needs apps, seeds and model kinds")
	}
	study := &ActiveStudy{
		Apps:    append([]string(nil), apps...),
		Seeds:   append([]int64(nil), seeds...),
		Budgets: []float64{0.02, 0.05},
		Arms:    []string{RandomArm, EIArm},
	}
	for _, app := range apps {
		_, cfgs, cycles, err := space.SweepBenchmark(ctx, app, cfg.TraceLen, cfg.seed(), cfg.SpaceStride, cfg.engineOpts())
		if err != nil {
			return nil, err
		}
		full, err := space.BuildDataset(cfgs, cycles)
		if err != nil {
			return nil, err
		}
		optimum, err := stat.Min(cycles)
		if err != nil {
			return nil, err
		}
		start := int(float64(full.Len())*activeStart + 0.5)
		if start < 1 {
			start = 1
		}
		for _, seed := range seeds {
			tc := cfg.trainCfg()
			tc.Seed = seed
			for _, budget := range study.Budgets {
				rounds := int(budget/activeStart+0.5) - 1
				points := start * (1 + rounds)
				for _, arm := range study.Arms {
					var res *core.SampledDSEResult
					if arm == RandomArm {
						res, err = core.RunSampledDSE(ctx, full, float64(points)/float64(full.Len()), kinds, tc)
					} else {
						var ares *core.ActiveDSEResult
						ares, err = core.RunActiveDSE(ctx, full, activeStart, kinds, tc, core.ActiveOptions{
							Rounds: rounds, Batch: start,
						})
						if ares != nil {
							res = &ares.SampledDSEResult
						}
					}
					if err != nil {
						return nil, fmt.Errorf("experiments: %s seed %d at %.0f%%, %s: %w", app, seed, 100*budget, arm, err)
					}
					if res.SampleSize != points {
						return nil, fmt.Errorf("experiments: %s seed %d, %s simulated %d points, want %d", app, seed, arm, res.SampleSize, points)
					}
					run := ActiveRun{
						App: app, Seed: seed, Budget: budget, Arm: arm,
						Points: points, SelectedTrue: res.SelectedTrueMAPE,
					}
					for _, rep := range res.Reports {
						if rep.Kind == res.Selected {
							run.Gap = rep.Estimate.Max - rep.TrueMAPE
						}
					}
					best := full.Target(res.SampleIndices[0])
					for _, i := range res.SampleIndices {
						best = math.Min(best, full.Target(i))
					}
					run.Regret = 100 * (best/optimum - 1)
					study.Runs = append(study.Runs, run)
				}
			}
		}
	}
	return study, nil
}

// ActiveSummary aggregates one (budget, arm) cell of the study over its
// (application, seed) runs. The win counts pair each run with the random
// arm's run at the same application, seed and budget: Wins counts runs
// where the arm is strictly lower, Differ runs where the two differ.
type ActiveSummary struct {
	Budget float64
	Arm    string
	Runs   int
	// SelectedTrue, Gap and Regret are means over the runs.
	SelectedTrue, Gap, Regret float64
	MAPEWins, MAPEDiffer      int
	RegretWins, RegretDiffer  int
}

// Summary reduces the runs to one row per (budget, arm), in study order.
func (s *ActiveStudy) Summary() []ActiveSummary {
	type pair struct {
		app    string
		seed   int64
		budget float64
	}
	random := map[pair]ActiveRun{}
	for _, r := range s.Runs {
		if r.Arm == RandomArm {
			random[pair{r.App, r.Seed, r.Budget}] = r
		}
	}
	var out []ActiveSummary
	for _, budget := range s.Budgets {
		for _, arm := range s.Arms {
			sum := ActiveSummary{Budget: budget, Arm: arm}
			for _, r := range s.Runs {
				if r.Budget != budget || r.Arm != arm {
					continue
				}
				sum.Runs++
				sum.SelectedTrue += r.SelectedTrue
				sum.Gap += r.Gap
				sum.Regret += r.Regret
				base := random[pair{r.App, r.Seed, r.Budget}]
				sum.MAPEWins, sum.MAPEDiffer = tally(sum.MAPEWins, sum.MAPEDiffer, r.SelectedTrue, base.SelectedTrue)
				sum.RegretWins, sum.RegretDiffer = tally(sum.RegretWins, sum.RegretDiffer, r.Regret, base.Regret)
			}
			if sum.Runs > 0 {
				n := float64(sum.Runs)
				sum.SelectedTrue /= n
				sum.Gap /= n
				sum.Regret /= n
			}
			out = append(out, sum)
		}
	}
	return out
}

// tally counts one paired comparison where lower is better.
func tally(wins, differ int, arm, random float64) (int, int) {
	if arm != random {
		differ++
	}
	if arm < random {
		wins++
	}
	return wins, differ
}

// WriteText renders the study: the per-budget summary with paired win
// counts, then each application's seed-mean selected MAPE and regret.
func (s *ActiveStudy) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Active learning vs random sampling at equal budget - %v, seeds %v\n", s.Apps, s.Seeds)
	fmt.Fprintln(tw, "budget\tarm\truns\tselected true%\test-true\tbest-labeled regret%\tMAPE wins/differ\tregret wins/differ")
	for _, r := range s.Summary() {
		wins := "-\t-"
		if r.Arm != RandomArm {
			wins = fmt.Sprintf("%d/%d\t%d/%d", r.MAPEWins, r.MAPEDiffer, r.RegretWins, r.RegretDiffer)
		}
		fmt.Fprintf(tw, "%.0f%%\t%s\t%d\t%.2f\t%+.2f\t%.2f\t%s\n",
			100*r.Budget, r.Arm, r.Runs, r.SelectedTrue, r.Gap, r.Regret, wins)
	}
	fmt.Fprintln(tw)
	head := "app\tbudget"
	for _, arm := range s.Arms {
		head += "\t" + arm + " MAPE%\t" + arm + " regret%"
	}
	fmt.Fprintln(tw, head)
	for _, app := range s.Apps {
		for _, budget := range s.Budgets {
			line := fmt.Sprintf("%s\t%.0f%%", app, 100*budget)
			for _, arm := range s.Arms {
				var mape, regret float64
				n := 0
				for _, r := range s.Runs {
					if r.App == app && r.Budget == budget && r.Arm == arm {
						mape += r.SelectedTrue
						regret += r.Regret
						n++
					}
				}
				line += fmt.Sprintf("\t%.2f\t%.2f", mape/float64(n), regret/float64(n))
			}
			fmt.Fprintln(tw, line)
		}
	}
	return tw.Flush()
}

// CrossFamilyResult quantifies why the paper analyzes processor families
// separately (§4.1: "when different processor types are used, the system
// configurations were significantly different from each other, preventing
// us from making a relative comparison"): a model trained on one family
// degrades badly on another.
type CrossFamilyResult struct {
	TrainFamily, TestFamily string
	Kind                    core.ModelKind
	// WithinTrue is the ordinary chronological error inside the training
	// family (2005 → 2006).
	WithinTrue float64
	// CrossTrue is the error of the same 2005-trained model applied to the
	// other family's 2005 systems.
	CrossTrue float64
}

// RunCrossFamily trains on one family's 2005 announcements and evaluates
// both within the family (its 2006 systems) and across families (the
// other family's 2005 systems).
func RunCrossFamily(ctx context.Context, trainFam, testFam string, kind core.ModelKind, cfg Config) (*CrossFamilyResult, error) {
	tf, err := specdata.FamilyByName(trainFam)
	if err != nil {
		return nil, err
	}
	of, err := specdata.FamilyByName(testFam)
	if err != nil {
		return nil, err
	}
	trainRecs, err := specdata.Generate(tf, cfg.seed())
	if err != nil {
		return nil, err
	}
	otherRecs, err := specdata.Generate(of, cfg.seed())
	if err != nil {
		return nil, err
	}
	train, err := specdata.BuildDataset(trainRecs, 2005)
	if err != nil {
		return nil, err
	}
	within, err := specdata.BuildDataset(trainRecs, 2006)
	if err != nil {
		return nil, err
	}
	cross, err := specdata.BuildDataset(otherRecs, 2005)
	if err != nil {
		return nil, err
	}
	p, err := core.Train(ctx, kind, train, cfg.trainCfg())
	if err != nil {
		return nil, err
	}
	res := &CrossFamilyResult{TrainFamily: trainFam, TestFamily: testFam, Kind: kind}
	if res.WithinTrue, _, err = p.Evaluate(ctx, within); err != nil {
		return nil, err
	}
	if res.CrossTrue, _, err = p.Evaluate(ctx, cross); err != nil {
		return nil, err
	}
	return res, nil
}

// LearningCurve traces one model's accuracy as the sampling budget grows —
// a finer-grained view of the paper's 1–5% axis, without the
// cross-validation overhead (true errors only).
type LearningCurve struct {
	Bench     string
	Kind      core.ModelKind
	Fractions []float64
	// TrueMAPE[i] is the whole-space error when training on Fractions[i].
	TrueMAPE []float64
}

// RunLearningCurve measures the model's whole-space error at each sampling
// fraction.
func RunLearningCurve(ctx context.Context, bench string, kind core.ModelKind, fractions []float64, cfg Config) (*LearningCurve, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("experiments: no fractions")
	}
	_, cfgs, cycles, err := space.SweepBenchmark(ctx, bench, cfg.TraceLen, cfg.seed(), cfg.SpaceStride, cfg.engineOpts())
	if err != nil {
		return nil, err
	}
	full, err := space.BuildDataset(cfgs, cycles)
	if err != nil {
		return nil, err
	}
	lc := &LearningCurve{Bench: bench, Kind: kind, Fractions: append([]float64(nil), fractions...)}
	for fi, frac := range fractions {
		tc := cfg.trainCfg()
		tc.Seed = stat.DeriveSeed(cfg.seed(), 4000+fi)
		sample, _, err := full.SampleFraction(stat.NewRand(tc.Seed), frac)
		if err != nil {
			return nil, err
		}
		p, err := core.Train(ctx, kind, sample, tc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at %.2f%%: %w", bench, 100*frac, err)
		}
		mape, _, err := p.Evaluate(ctx, full)
		if err != nil {
			return nil, err
		}
		lc.TrueMAPE = append(lc.TrueMAPE, mape)
	}
	return lc, nil
}

// WriteText renders the learning curve.
func (lc *LearningCurve) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Learning curve - %s with %v\n", lc.Bench, lc.Kind)
	fmt.Fprintln(tw, "sample%\ttrue error%")
	for i, f := range lc.Fractions {
		fmt.Fprintf(tw, "%.2f\t%.2f\n", 100*f, lc.TrueMAPE[i])
	}
	return tw.Flush()
}
