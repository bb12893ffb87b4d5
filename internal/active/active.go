// Package active is the training-side active-learning subsystem: a
// deterministic, budgeted loop that replaces one-shot random sampling
// with rounds of train-committee → score-pool → acquire-batch →
// re-train. The paper's Sampled-DSE workflow (Figure 1a) draws its
// 1–5 % training sample uniformly at random and trains once; this
// package spends the same simulation budget adaptively, steering each
// round's simulations to the design points where the committee's
// posterior expects the largest improvement on the best design found so
// far.
//
// Acquisition is expected improvement (EI) under the committee
// posterior, the one acquisition that beat random sampling on its own
// target on the simulated spaces (experiments -exp active). Pool
// scoring fans out on the internal/engine pool with worker-local scratch
// (the chunk path allocates nothing steady-state), and every stochastic
// choice derives from the config seed via stat.DeriveSeed, so a run is
// bit-identical at any worker count.
//
// The package deliberately does not import internal/core: core owns
// model training and hands the loop a TrainRound callback, so the
// dependency points the same way as everywhere else in the repository
// (core orchestrates, subsystems serve).
package active

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/model"
	"perfpred/internal/stat"
)

// Member is one trained committee surrogate: a registry model bound to
// the encoder that prepared its inputs, exactly as core trains them.
type Member struct {
	// Name labels the member (the model kind's display name).
	Name string
	// Family is the member's registry descriptor (scratch allocation,
	// artifact tag for per-family scratch reuse).
	Family model.Family
	// Model is the trained surrogate.
	Model model.Model
	// Enc is the fitted input encoder the model was trained behind.
	Enc *dataset.Encoder
}

// MemberError is one committee member's measured error at one round —
// the learning-curve trajectory RunReports carry.
type MemberError struct {
	// Name is the member's model label.
	Name string
	// MAPE is the member's mean absolute percentage error on the
	// evaluation data (the full space, for sampled DSE).
	MAPE float64
}

// Committee is one round's trained committee plus its optional measured
// error trajectory. Errors is observability only — it never feeds
// acquisition, which sees nothing but the members and the pool.
type Committee struct {
	Members []Member
	Errors  []MemberError
}

// Config configures one active-learning run.
type Config struct {
	// Seed drives every stochastic choice, via stat.DeriveSeed streams.
	Seed int64
	// Rounds is the number of acquisition rounds (required, > 0).
	Rounds int
	// Batch is the number of pool points acquired per round (required,
	// > 0); the loop's total simulation budget is the initial sample
	// plus Rounds×Batch, clipped to the pool.
	Batch int
	// Workers bounds scoring fan-outs (0 = GOMAXPROCS).
	Workers int
	// Hook, if non-nil, observes engine events from the scoring fan-outs.
	Hook engine.Hook
	// TrainRound trains the committee on the current labeled set. Every
	// stochastic choice must derive from roundSeed so the loop stays
	// bit-identical at any worker count. Required.
	TrainRound func(ctx context.Context, labeled *dataset.Dataset, roundSeed int64) (*Committee, error)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RoundStats records one acquisition round for observability: sizes,
// wall-clock timings, and the committee's error trajectory. Timings are
// measurements, never inputs — the determinism suites compare
// everything else bit-for-bit.
type RoundStats struct {
	// Round is the 1-based round index.
	Round int
	// LabeledBefore and PoolBefore are the set sizes entering the round.
	LabeledBefore, PoolBefore int
	// Acquired is how many points the round moved pool → labeled.
	Acquired int
	// TrainSeconds and AcquireSeconds are the round's committee-training
	// and acquisition-scoring wall-clock times.
	TrainSeconds, AcquireSeconds float64
	// Committee is the trained members' measured error this round.
	Committee []MemberError
}

// Result is one completed active-learning run.
type Result struct {
	// LabeledIdx are the labeled rows' indices into the full dataset the
	// run was given: the initial sample first, then each round's
	// acquisitions in acquisition order.
	LabeledIdx []int
	// PoolIdx are the still-unlabeled indices, in original order.
	PoolIdx []int
	// Rounds holds one entry per executed acquisition round.
	Rounds []RoundStats
}

// Run executes the active-learning loop over full, starting from the
// already-labeled initial indices (the random seed sample). Each round
// retrains the committee via cfg.TrainRound (an error aborts the loop),
// scores the remaining pool by expected improvement, and moves the
// acquired batch into the labeled set. The loop ends after cfg.Rounds
// rounds or when the pool runs dry, whichever comes first.
//
// Determinism contract: round r derives roundSeed = DeriveSeed(cfg.Seed,
// 9000+r) and the committee trains from roundSeed (the callback's duty);
// acquisition itself draws nothing at random. All pool indices
// are tracked in original order and every fan-out writes
// index-addressed, so the labeled trajectory is bit-identical for any
// worker count or schedule.
func Run(ctx context.Context, full *dataset.Dataset, initial []int, cfg Config) (*Result, error) {
	if full == nil || full.Len() == 0 {
		return nil, errors.New("active: empty design-space dataset")
	}
	if len(initial) == 0 {
		return nil, errors.New("active: empty initial sample")
	}
	if cfg.Rounds <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("active: rounds %d and batch %d must be positive", cfg.Rounds, cfg.Batch)
	}
	if cfg.TrainRound == nil {
		return nil, errors.New("active: no TrainRound callback")
	}

	labeled := append([]int(nil), initial...)
	_, pool, err := full.Complement(labeled)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	opts := engine.Options{Workers: cfg.workers(), Hook: cfg.Hook}

	for round := 1; round <= cfg.Rounds && len(pool) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roundSeed := stat.DeriveSeed(cfg.Seed, 9000+round)
		st := RoundStats{Round: round, LabeledBefore: len(labeled), PoolBefore: len(pool)}

		labeledDS, err := full.Subset(labeled)
		if err != nil {
			return nil, err
		}
		trainStart := time.Now()
		com, err := cfg.TrainRound(ctx, labeledDS, roundSeed)
		if err != nil {
			return nil, fmt.Errorf("active: round %d: training committee: %w", round, err)
		}
		st.TrainSeconds = time.Since(trainStart).Seconds()
		st.Committee = com.Errors

		poolDS, err := full.Subset(pool)
		if err != nil {
			return nil, err
		}
		k := cfg.Batch
		if k > len(pool) {
			k = len(pool)
		}
		acqStart := time.Now()
		picks, err := acquireEI(ctx, &Round{
			Pool:    poolDS,
			Labeled: labeledDS,
			Members: com.Members,
			Opts:    opts,
		}, k)
		if err != nil {
			return nil, fmt.Errorf("active: round %d: acquisition: %w", round, err)
		}
		st.AcquireSeconds = time.Since(acqStart).Seconds()
		if err := checkPicks(picks, k, len(pool)); err != nil {
			return nil, fmt.Errorf("active: round %d: acquisition: %w", round, err)
		}

		// Move the batch pool → labeled: labeled grows in acquisition
		// order, the pool keeps its original order.
		taken := make(map[int]bool, len(picks))
		for _, p := range picks {
			labeled = append(labeled, pool[p])
			taken[p] = true
		}
		rest := pool[:0]
		for i, idx := range pool {
			if !taken[i] {
				rest = append(rest, idx)
			}
		}
		pool = rest
		st.Acquired = len(picks)
		res.Rounds = append(res.Rounds, st)
	}
	res.LabeledIdx = labeled
	res.PoolIdx = pool
	return res, nil
}

// checkPicks validates one acquisition batch: exactly k picks, each a
// distinct in-range pool index — a misbehaving acquisition fails loudly
// instead of corrupting the budget accounting.
func checkPicks(picks []int, k, poolLen int) error {
	if len(picks) != k {
		return fmt.Errorf("returned %d picks, want %d", len(picks), k)
	}
	seen := make(map[int]bool, len(picks))
	for _, p := range picks {
		if p < 0 || p >= poolLen {
			return fmt.Errorf("pick %d out of pool range [0,%d)", p, poolLen)
		}
		if seen[p] {
			return fmt.Errorf("pick %d returned twice", p)
		}
		seen[p] = true
	}
	return nil
}
