package core

import (
	"context"
	"errors"
	"fmt"

	"perfpred/internal/active"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
)

// ActiveOptions configures the active-learning extension of the sampled
// DSE workflow: how many acquisition rounds follow the initial random
// sample, and how many points each round simulates.
type ActiveOptions struct {
	// Rounds is the number of acquisition rounds (0 = 4).
	Rounds int
	// Batch is the number of design points acquired per round (0 =
	// initial sample size / Rounds, at least 1 — i.e. the default run
	// doubles the initial budget adaptively).
	Batch int
}

// ActiveRoundStats re-exports the loop's per-round record.
type ActiveRoundStats = active.RoundStats

// ActiveDSEResult is the outcome of one active-learning design-space
// exploration run: the final committee's reports and selection (the
// same shape a sampled-DSE run produces, so downstream tooling is
// shared), plus the acquisition trajectory.
type ActiveDSEResult struct {
	SampledDSEResult
	// InitialSize is the random seed sample's size; SampleSize is the
	// total budget after all acquisition rounds.
	InitialSize int
	// Rounds holds one entry per executed acquisition round, carrying
	// the committee's full-space error trajectory (the learning curve).
	Rounds []ActiveRoundStats
}

// RunActiveDSE performs model-guided sampled design-space exploration:
// draw the same initial random sample RunSampledDSE would draw for this
// fraction and seed, then run the internal/active loop — each round
// retrains the committee of requested kinds on everything labeled so
// far, scores the unlabeled remainder by expected improvement under the
// committee posterior, and "simulates" (labels) the next batch. After
// the final round the requested kinds are trained and cross-validated
// on the full labeled set exactly as RunSampledDSE does, so active and
// random runs are comparable report-for-report at equal simulation
// budget.
//
// Each round's committee members are evaluated against the whole space
// for the learning-curve trajectory in Rounds; that measurement is
// observability only — acquisition sees nothing but the members'
// predictions over the pool.
func RunActiveDSE(ctx context.Context, full *dataset.Dataset, fraction float64, kinds []ModelKind, cfg TrainConfig, opts ActiveOptions) (*ActiveDSEResult, error) {
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
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = sample.Len() / rounds
		if batch < 1 {
			batch = 1
		}
	}

	ares, err := active.Run(ctx, full, idx, active.Config{
		Seed:       cfg.Seed,
		Rounds:     rounds,
		Batch:      batch,
		Workers:    cfg.workers(),
		Hook:       cfg.Hook,
		TrainRound: trainCommittee(kinds, full, cfg),
	})
	if err != nil {
		return nil, err
	}

	labeled, err := full.Subset(ares.LabeledIdx)
	if err != nil {
		return nil, err
	}
	complement, _, err := full.Complement(ares.LabeledIdx)
	if err != nil {
		return nil, err
	}
	reports, err := evaluateKinds(ctx, kinds, labeled, full, cfg, true)
	if err != nil {
		return nil, err
	}
	res := &ActiveDSEResult{
		SampledDSEResult: SampledDSEResult{
			Fraction:      fraction,
			SampleSize:    labeled.Len(),
			Reports:       reports,
			SampleIndices: ares.LabeledIdx,
			Complement:    complement,
		},
		InitialSize: sample.Len(),
		Rounds:      ares.Rounds,
	}
	sel, err := selectByEstimate(reports)
	if err != nil {
		return nil, err
	}
	res.Selected = sel.Kind
	res.SelectedTrueMAPE = sel.TrueMAPE
	return res, nil
}

// trainCommittee builds the loop's TrainRound callback: train every
// requested kind on the labeled set as one flat task graph on the
// engine pool (inner trainings run with Workers=1, matching
// evaluateKinds), then measure each member's full-space error for the
// learning-curve trajectory.
//
// Seed-derivation contract: at round seed rs, kind k trains with seed
// DeriveSeed(rs, 100+int(k)) — the same 100+kind stream offset every
// other workflow uses, namespaced by the round — so the trajectory is
// bit-identical at any worker count.
func trainCommittee(kinds []ModelKind, evalSpace *dataset.Dataset, cfg TrainConfig) func(context.Context, *dataset.Dataset, int64) (*active.Committee, error) {
	return func(ctx context.Context, labeled *dataset.Dataset, roundSeed int64) (*active.Committee, error) {
		members := make([]active.Member, len(kinds))
		errs := make([]active.MemberError, len(kinds))
		tasks := make([]engine.Task, len(kinds))
		for i, kind := range kinds {
			i, kind := i, kind
			kindCfg := cfg
			kindCfg.Seed = stat.DeriveSeed(roundSeed, 100+int(kind))
			kindCfg.Workers = 1 // the committee graph saturates the pool by itself
			tasks[i] = engine.Task{
				Label: cfg.Hook.Label("committee %v", kind),
				Model: kind.String(),
				Fold:  -1,
				Run: func(ctx context.Context, _ int) error {
					p, err := Train(ctx, kind, labeled, kindCfg)
					if err != nil {
						return fmt.Errorf("training committee %v: %w", kind, err)
					}
					mape, _, err := p.Evaluate(ctx, evalSpace)
					if err != nil {
						return fmt.Errorf("evaluating committee %v: %w", kind, err)
					}
					members[i] = active.Member{
						Name:   kind.String(),
						Family: p.Family(),
						Model:  p.Model(),
						Enc:    p.Encoder(),
					}
					errs[i] = active.MemberError{Name: kind.String(), MAPE: mape}
					return nil
				},
			}
		}
		if err := engine.Run(ctx, cfg.pool(), tasks...); err != nil {
			return nil, err
		}
		return &active.Committee{Members: members, Errors: errs}, nil
	}
}
