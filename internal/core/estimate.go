package core

import (
	"context"
	"errors"
	"math/rand"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// ErrorEstimate is the predicted generalization error of a model obtained
// by cross-validation before any test data is seen (paper §3.3).
type ErrorEstimate struct {
	// Mean is the average cross-validated MAPE over the folds.
	Mean float64
	// Max is the worst fold's MAPE. The paper found the maximum to be the
	// closer estimate of the true error and uses it for model selection.
	Max float64
	// PerFold lists each fold's MAPE.
	PerFold []float64
}

// estimateFolds is the paper's fold count: "we have generated five random
// sets of 50% of the training data" (§3.3).
const estimateFolds = 5

// estimateFoldTask builds the engine task computing one cross-validation
// fold of kind's error estimate, writing the fold's MAPE into out[fold].
//
// Seed-derivation contract (frozen so scheduling changes can never perturb
// the paper's reproduced numbers): the fold's split RNG is seeded with
// DeriveSeed(cfg.Seed, 7000+fold) and the fold's training seed with
// DeriveSeed(foldSeed, 1). The split draws from the worker's fold
// generator, reseeded onto that stream. Fold tasks always train with
// Workers=1 — the pool that schedules them owns the global worker budget.
func estimateFoldTask(kind ModelKind, train *dataset.Dataset, cfg TrainConfig, fold int, out []float64) engine.Task {
	return engine.Task{
		Label: cfg.Hook.Label("estimate %v fold %d", kind, fold),
		Model: kind.String(),
		Fold:  fold,
		Run: func(ctx context.Context, _ int) error {
			if train == nil || train.Len() < 4 {
				return errors.New("core: need at least 4 records to estimate error")
			}
			foldSeed := stat.DeriveSeed(cfg.Seed, 7000+fold)
			fr := foldRandFrom(ctx)
			fr.r = stat.Reseed(fr.r, foldSeed)
			half, rest, err := train.SplitHalf(fr.r)
			if err != nil {
				return err
			}
			foldCfg := cfg
			foldCfg.Seed = stat.DeriveSeed(foldSeed, 1)
			foldCfg.Workers = 1 // parallelism lives at the fold level
			p, err := Train(ctx, kind, half, foldCfg)
			if err != nil {
				return err
			}
			mape, _, err := p.Evaluate(ctx, rest)
			if err != nil {
				return err
			}
			out[fold] = mape
			return nil
		},
	}
}

// foldRandKey identifies the fold generator's slot in an engine worker's
// local store.
type foldRandKey struct{}

// foldRand is one worker's generator for fold splits. A fold draws its
// whole split before it trains, so the next fold on the worker may
// reseed it.
type foldRand struct{ r *rand.Rand }

// foldRandFrom returns the current worker's fold generator holder.
// Outside a pool each call gets a fresh one.
func foldRandFrom(ctx context.Context) *foldRand {
	return engine.WorkerLocal(ctx, foldRandKey{}, func() any { return new(foldRand) }).(*foldRand)
}

// foldEstimate aggregates per-fold MAPEs into an ErrorEstimate.
func foldEstimate(perFold []float64) (ErrorEstimate, error) {
	est := ErrorEstimate{PerFold: perFold}
	est.Mean = stat.Mean(perFold)
	mx, err := stat.Max(perFold)
	if err != nil {
		return ErrorEstimate{}, err
	}
	est.Max = mx
	return est, nil
}

// EstimateError estimates a model kind's predictive error on the training
// data by the paper's procedure: five times, split the training data into
// random halves, train on one half and measure MAPE on the other. Folds
// run in parallel on the engine pool; the result is deterministic for a
// given seed regardless of worker count.
func EstimateError(ctx context.Context, kind ModelKind, train *dataset.Dataset, cfg TrainConfig) (ErrorEstimate, error) {
	if train == nil || train.Len() < 4 {
		return ErrorEstimate{}, errors.New("core: need at least 4 records to estimate error")
	}
	perFold := make([]float64, estimateFolds)
	tasks := make([]engine.Task, estimateFolds)
	for fold := 0; fold < estimateFolds; fold++ {
		tasks[fold] = estimateFoldTask(kind, train, cfg, fold, perFold)
	}
	if err := engine.Run(ctx, cfg.pool(), tasks...); err != nil {
		return ErrorEstimate{}, err
	}
	return foldEstimate(perFold)
}
