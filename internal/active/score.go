package active

import (
	"context"
	"errors"
	"fmt"
	"time"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/model"
)

// Spreader is optionally implemented by committee members whose model is
// itself an ensemble able to report per-row internal disagreement —
// TREE-B's per-tree spread. PredictSpreadInto writes the ensemble-mean
// prediction and the population standard deviation of the members'
// predictions (both in model-space units) for every row of x; mean must
// be bit-identical to what PredictAllInto would write.
type Spreader interface {
	PredictSpreadInto(mean, spread []float64, x [][]float64)
}

// scoreChunk is the pool-scoring fan-out granularity, and
// scoreParallelMin the pool size below which ScoreAll stays sequential
// (mirroring core's prediction chunking).
const (
	scoreChunk       = 256
	scoreParallelMin = 2 * scoreChunk
)

// Scorer computes per-row committee statistics over an unlabeled pool:
// the committee-mean prediction and the committee's predictive variance,
// both in raw target units. The variance is the law-of-total-variance
// decomposition over the committee mixture: the variance of the member
// means (disagreement across model kinds) plus the mean internal
// variance of members that expose one (TREE-B's per-tree spread).
//
// Scoring is the subsystem's hot path: chunks encode each member's view
// of the rows into worker-local flat buffers (engine.WorkerLocal) and
// stream them through the family's batched kernel, so steady-state
// chunk scoring allocates nothing — pinned by TestScoreChunkZeroAlloc
// and the committed BENCH_10.json allocs/op gate.
type Scorer struct {
	members []Member
}

// NewScorer builds a scorer over the committee. Every member must carry
// a model and a fitted encoder whose widths agree.
func NewScorer(members []Member) (*Scorer, error) {
	if len(members) == 0 {
		return nil, errors.New("active: empty committee")
	}
	s := &Scorer{members: members}
	for _, m := range members {
		if m.Model == nil || m.Enc == nil {
			return nil, fmt.Errorf("active: committee member %q lacks a model or encoder", m.Name)
		}
		if got, w := m.Model.NumInputs(), m.Enc.NumColumns(); got != w {
			return nil, fmt.Errorf("active: member %q expects %d inputs but its encoder produces %d columns", m.Name, got, w)
		}
	}
	return s, nil
}

// scoreScratchKey identifies the scorer's slot in an engine worker's
// local store.
type scoreScratchKey struct{}

// scoreScratch holds one worker's reusable scoring buffers: the encode
// matrix of the current chunk (re-filled per member), per-member
// prediction and spread outputs, per-row accumulators, and each
// family's prediction scratch keyed by its artifact tag (so
// mixed-family committees stay zero-alloc).
type scoreScratch struct {
	enc    dataset.RowBuffer
	preds  []float64
	spread []float64
	sum    []float64
	sum2   []float64
	within []float64
	fams   map[string]model.Scratch
}

func (sc *scoreScratch) scratchFor(fam model.Family) model.Scratch {
	s, ok := sc.fams[fam.Tag]
	if !ok {
		if sc.fams == nil {
			sc.fams = make(map[string]model.Scratch, 1)
		}
		s = fam.NewScratch()
		sc.fams[fam.Tag] = s
	}
	return s
}

// ensure sizes the scratch's per-row outputs for an n-row chunk.
// Growth-only, so a warmed worker never reallocates.
func (sc *scoreScratch) ensure(n int) {
	if cap(sc.preds) < n {
		sc.preds = make([]float64, n)
		sc.spread = make([]float64, n)
		sc.sum = make([]float64, n)
		sc.sum2 = make([]float64, n)
		sc.within = make([]float64, n)
	}
}

func scoreScratchFrom(ctx context.Context) *scoreScratch {
	return engine.WorkerLocal(ctx, scoreScratchKey{}, func() any { return new(scoreScratch) }).(*scoreScratch)
}

// ScoreChunk scores pool rows [lo,hi) into mean and vari (full-pool
// slices, written index-addressed at [lo,hi)). The worker-local scratch
// comes from ctx; long-lived callers outside an engine pool should wrap
// their context with engine.NewWorkerContext to get buffer reuse.
func (s *Scorer) ScoreChunk(ctx context.Context, pool *dataset.Dataset, lo, hi int, mean, vari []float64) error {
	n := hi - lo
	sc := scoreScratchFrom(ctx)
	sc.ensure(n)
	sum, sum2, within := sc.sum[:n], sc.sum2[:n], sc.within[:n]
	for i := range sum {
		sum[i], sum2[i], within[i] = 0, 0, 0
	}
	for _, m := range s.members {
		rows, err := m.Enc.EncodeRows(&sc.enc, pool.Rows(lo, hi))
		if err != nil {
			return fmt.Errorf("active: encoding the pool chunk at row %d for %q: %w", lo, m.Name, err)
		}
		preds := sc.preds[:n]
		// The target transform is affine, so an interval of model-space
		// width w spans w*unitScale raw units.
		unitScale := m.Enc.UnscaleTarget(1) - m.Enc.UnscaleTarget(0)
		if sp, ok := m.Model.(Spreader); ok {
			spread := sc.spread[:n]
			sp.PredictSpreadInto(preds, spread, rows)
			for i := 0; i < n; i++ {
				p := m.Enc.UnscaleTarget(preds[i])
				sum[i] += p
				sum2[i] += p * p
				w := spread[i] * unitScale
				within[i] += w * w
			}
			continue
		}
		m.Model.PredictAllInto(preds, rows, sc.scratchFor(m.Family))
		for i := 0; i < n; i++ {
			p := m.Enc.UnscaleTarget(preds[i])
			sum[i] += p
			sum2[i] += p * p
		}
	}
	k := float64(len(s.members))
	for i := 0; i < n; i++ {
		mu := sum[i] / k
		va := sum2[i]/k - mu*mu
		if va < 0 { // rounding noise from the one-pass variance
			va = 0
		}
		mean[lo+i] = mu
		vari[lo+i] = va + within[i]/k
	}
	return nil
}

// ScoreAll scores every pool row, fanning chunks out on the engine pool
// for large pools. mean and vari must have pool.Len() elements; writes
// are index-addressed, so the result is independent of scheduling. Each
// chunk's in-kernel time is reported as a KernelTime event so RunReports
// break out acquisition-scoring throughput.
func (s *Scorer) ScoreAll(ctx context.Context, opts engine.Options, pool *dataset.Dataset, mean, vari []float64) error {
	if len(mean) != pool.Len() || len(vari) != pool.Len() {
		return fmt.Errorf("active: ScoreAll buffers hold %d/%d slots for %d pool rows", len(mean), len(vari), pool.Len())
	}
	score := func(ctx context.Context, lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := s.ScoreChunk(ctx, pool, lo, hi, mean, vari); err != nil {
			return err
		}
		opts.Hook.Emit(engine.Event{
			Kind: engine.KernelTime, Label: "active score",
			Fold: -1, Samples: int64(hi - lo), Elapsed: time.Since(start),
		})
		return nil
	}
	if pool.Len() < scoreParallelMin {
		return score(ctx, 0, pool.Len())
	}
	return engine.Map(ctx, opts, pool.Len(), scoreChunk, "active score", score)
}
