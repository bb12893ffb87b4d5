package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// ModelReport carries one model's estimated and measured quality in an
// experiment.
type ModelReport struct {
	Kind ModelKind
	// Estimate is the cross-validated error predicted from training data
	// alone (§3.3).
	Estimate ErrorEstimate
	// TrueMAPE is the measured mean absolute percentage error on the
	// evaluation data (the whole space for sampled DSE, the following year
	// for chronological prediction).
	TrueMAPE float64
	// StdAPE is the standard deviation of the absolute percentage errors
	// (the error bars of Figures 7–8).
	StdAPE float64
	// Predictor is the model trained on the full training set.
	Predictor *Predictor
}

// SampledDSEResult is the outcome of one sampled design-space exploration
// run (Figure 1a) at one sampling rate.
type SampledDSEResult struct {
	// Fraction is the sampling rate (e.g. 0.01 for the paper's 1%).
	Fraction float64
	// SampleSize is the number of design points actually simulated.
	SampleSize int
	// Reports holds one entry per requested model kind, in request order.
	Reports []ModelReport
	// Selected is the model the Select meta-method picks: lowest
	// estimated (Max-criterion) error, resolved before any test data is
	// seen (paper §4.4, Table 3's "select" row).
	Selected ModelKind
	// SelectedTrueMAPE is the true error of the selected model.
	SelectedTrueMAPE float64
	// SampleIndices are the simulated rows' indices into the full space,
	// in the order they were drawn (for active DSE: initial sample first,
	// then each round's acquisitions in acquisition order).
	SampleIndices []int
	// Complement is the unsampled remainder of the space, in original
	// order, sharing rows with the full dataset — the initial unlabeled
	// pool the active-learning loop acquires from.
	Complement *dataset.Dataset
}

// RunSampledDSE performs the paper's sampled design-space exploration:
// randomly sample the given fraction of the full space, train every
// requested model on the sample, estimate each model's error by
// cross-validation, measure each model's true error against the whole
// space, and apply the Select rule. All per-kind and per-fold work runs as
// one flat task graph on the engine pool; cancelling ctx aborts the run
// promptly with ctx's error.
func RunSampledDSE(ctx context.Context, full *dataset.Dataset, fraction float64, kinds []ModelKind, cfg TrainConfig) (*SampledDSEResult, error) {
	if full == nil || full.Len() < 8 {
		return nil, errors.New("core: full design-space dataset too small")
	}
	if len(kinds) == 0 {
		return nil, errors.New("core: no model kinds requested")
	}
	sample, idx, err := full.SampleFraction(stat.NewRand(stat.DeriveSeed(cfg.Seed, 1)), fraction)
	if err != nil {
		return nil, err
	}
	complement, _, err := full.Complement(idx)
	if err != nil {
		return nil, err
	}
	reports, err := evaluateKinds(ctx, kinds, sample, full, cfg, true)
	if err != nil {
		return nil, err
	}
	res := &SampledDSEResult{
		Fraction:      fraction,
		SampleSize:    sample.Len(),
		Reports:       reports,
		SampleIndices: idx,
		Complement:    complement,
	}
	sel, err := selectByEstimate(reports)
	if err != nil {
		return nil, err
	}
	res.Selected = sel.Kind
	res.SelectedTrueMAPE = sel.TrueMAPE
	return res, nil
}

// ChronoResult is the outcome of one chronological prediction run
// (Figure 1b): models trained on year Y predict year Y+1.
type ChronoResult struct {
	// Reports holds one entry per requested kind, in request order.
	Reports []ModelReport
	// Best is the model with the lowest measured error on the future year
	// (what the paper's Table 2 reports).
	Best ModelKind
	// BestTrueMAPE is its error.
	BestTrueMAPE float64
	// Selected is the model chosen on estimated error alone (usable
	// before the future year exists).
	Selected ModelKind
	// SelectedTrueMAPE is the selected model's measured error.
	SelectedTrueMAPE float64
}

// RunChronological trains every requested model on the training-year
// dataset, estimates errors by cross-validation on that year, and measures
// true errors against the future-year dataset.
func RunChronological(ctx context.Context, train, future *dataset.Dataset, kinds []ModelKind, cfg TrainConfig) (*ChronoResult, error) {
	if train == nil || train.Len() < 8 {
		return nil, errors.New("core: training-year dataset too small")
	}
	if future == nil || future.Len() == 0 {
		return nil, errors.New("core: future-year dataset is empty")
	}
	if len(kinds) == 0 {
		return nil, errors.New("core: no model kinds requested")
	}
	reports, err := evaluateKinds(ctx, kinds, train, future, cfg, true)
	if err != nil {
		return nil, err
	}
	res := &ChronoResult{Reports: reports}
	best := &reports[0]
	for i := range reports {
		if reports[i].TrueMAPE < best.TrueMAPE {
			best = &reports[i]
		}
	}
	res.Best = best.Kind
	res.BestTrueMAPE = best.TrueMAPE
	sel, err := selectByEstimate(reports)
	if err != nil {
		return nil, err
	}
	res.Selected = sel.Kind
	res.SelectedTrueMAPE = sel.TrueMAPE
	return res, nil
}

// evaluateKinds trains and scores every kind against the evaluation
// dataset, optionally with cross-validated estimates. The work is one flat
// task graph — kinds × (folds + final train/evaluate) — scheduled together
// on the engine pool, so a slow fold of one kind never serializes behind
// the other kinds' work and the pool owns the whole worker budget (inner
// trainings run with Workers=1).
//
// Seed-derivation contract: kind k trains with seed DeriveSeed(cfg.Seed,
// 100+int(k)); its estimate folds derive from that kind seed as documented
// on estimateFoldTask. Every task draws randomness only from those seeds,
// so results are bit-identical for any worker count or schedule.
func evaluateKinds(ctx context.Context, kinds []ModelKind, train, eval *dataset.Dataset, cfg TrainConfig, withEstimates bool) ([]ModelReport, error) {
	reports := make([]ModelReport, len(kinds))
	perFold := make([][]float64, len(kinds))
	tasksPerKind := 1
	if withEstimates {
		tasksPerKind += estimateFolds
	}
	tasks := make([]engine.Task, 0, len(kinds)*tasksPerKind)
	for i, kind := range kinds {
		i, kind := i, kind
		kindCfg := cfg
		kindCfg.Seed = stat.DeriveSeed(cfg.Seed, 100+int(kind))
		kindCfg.Workers = 1 // the flat graph saturates the pool by itself
		reports[i].Kind = kind
		if withEstimates {
			perFold[i] = make([]float64, estimateFolds)
			for fold := 0; fold < estimateFolds; fold++ {
				task := estimateFoldTask(kind, train, kindCfg, fold, perFold[i])
				run := task.Run
				task.Run = func(ctx context.Context, pos int) error {
					if err := run(ctx, pos); err != nil {
						return fmt.Errorf("estimating %v: %w", kind, err)
					}
					return nil
				}
				tasks = append(tasks, task)
			}
		}
		tasks = append(tasks, engine.Task{
			Label: cfg.Hook.Label("train %v", kind),
			Model: kind.String(),
			Fold:  -1,
			Run: func(ctx context.Context, _ int) error {
				p, err := Train(ctx, kind, train, kindCfg)
				if err != nil {
					return fmt.Errorf("training %v: %w", kind, err)
				}
				reports[i].Predictor = p
				reports[i].TrueMAPE, reports[i].StdAPE, err = p.Evaluate(ctx, eval)
				if err != nil {
					return fmt.Errorf("evaluating %v: %w", kind, err)
				}
				return nil
			},
		})
	}
	if err := engine.Run(ctx, cfg.pool(), tasks...); err != nil {
		return nil, err
	}
	if withEstimates {
		for i := range reports {
			est, err := foldEstimate(perFold[i])
			if err != nil {
				return nil, fmt.Errorf("estimating %v: %w", kinds[i], err)
			}
			reports[i].Estimate = est
		}
	}
	return reports, nil
}

// selectByEstimate applies the paper's Select rule: choose the model whose
// estimated error (the Max criterion) is lowest. Ties break toward the
// earliest model in request order, so selection is deterministic for a
// fixed kinds slice; callers who care should therefore pass kinds in a
// stable order (the paper's figure order, say).
func selectByEstimate(reports []ModelReport) (*ModelReport, error) {
	if len(reports) == 0 {
		return nil, errors.New("core: no reports to select from")
	}
	best := &reports[0]
	bestScore := math.Inf(1)
	for i := range reports {
		score := reports[i].Estimate.Max
		if score < bestScore {
			best = &reports[i]
			bestScore = score
		}
	}
	return best, nil
}
