package core

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

// TrainConfig configures model training.
type TrainConfig struct {
	// Seed drives every stochastic choice (splits, NN initialization).
	Seed int64
	// Workers bounds intra-training parallelism (0 = GOMAXPROCS).
	Workers int
	// EpochScale scales iterative training budgets — neural epoch counts,
	// tree ensemble sizes (0 = 1.0); tests use small values for speed.
	EpochScale float64
	// Hook, if non-nil, observes execution events (task start/finish,
	// durations, fold indices, neural epoch progress). Hooks must be safe
	// for concurrent use; they are observability-only and never affect
	// results.
	Hook engine.Hook
}

func (c TrainConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pool returns the engine options for fan-outs driven by this config.
func (c TrainConfig) pool() engine.Options {
	return engine.Options{Workers: c.workers(), Hook: c.Hook}
}

// Predictor is one trained model bound to the encoder that prepared its
// inputs, so it can score raw records directly. The model itself is
// whatever family the registry resolved for the kind — core never touches
// concrete model types.
type Predictor struct {
	kind  ModelKind
	fam   model.Family
	enc   *dataset.Encoder
	model model.Model
	// hook carries the training config's observability hook so batch
	// prediction fan-outs report to the same stream as training did.
	// Never affects results; nil on deserialized predictors.
	hook engine.Hook
}

// Train fits a model of the given kind on the training dataset. The
// kind's registered family declares its data preparation (§3.4) and
// trainer; cancellation of ctx aborts training loops promptly.
func Train(ctx context.Context, kind ModelKind, train *dataset.Dataset, cfg TrainConfig) (*Predictor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if train == nil || train.Len() == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	fam, ok := model.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("core: unknown model kind %v", kind)
	}
	enc, err := dataset.FitEncoder(train, fam.Mode)
	if err != nil {
		return nil, fmt.Errorf("core: preparing %v inputs: %w", fam.Mode, err)
	}
	x, y, err := enc.Transform(train)
	if err != nil {
		return nil, err
	}
	fitted, err := fam.Fit(ctx, x, y, enc.ColumnNames(), model.FitConfig{
		Seed:       cfg.Seed,
		Workers:    cfg.workers(),
		EpochScale: cfg.EpochScale,
		Hook:       cfg.Hook,
	})
	if err != nil {
		return nil, fmt.Errorf("core: training %v: %w", kind, err)
	}
	return &Predictor{kind: kind, fam: fam, enc: enc, model: fitted, hook: cfg.Hook}, nil
}

// Kind returns the model kind.
func (p *Predictor) Kind() ModelKind { return p.kind }

// Family returns the kind's registered family descriptor.
func (p *Predictor) Family() model.Family { return p.fam }

// Encoder exposes the fitted input encoder.
func (p *Predictor) Encoder() *dataset.Encoder { return p.enc }

// Model exposes the trained model behind the registry interface.
func (p *Predictor) Model() model.Model { return p.model }

// Predict scores one raw record (in original units). It routes through
// the same batch kernel as PredictRowsInto, so single-row and batch
// predictions are bit-identical by construction.
func (p *Predictor) Predict(row []dataset.Value) (float64, error) {
	x, err := p.enc.EncodeRow(row)
	if err != nil {
		return 0, err
	}
	var out [1]float64
	p.model.PredictAllInto(out[:], [][]float64{x}, p.fam.NewScratch())
	return p.enc.UnscaleTarget(out[0]), nil
}

// predictChunk is the batch size of one parallel prediction task, and
// predictParallelMin the dataset size below which PredictDataset stays
// sequential (small fold evaluations inside an already-saturated task
// graph gain nothing from nested fan-out).
const (
	predictChunk       = 256
	predictParallelMin = 2 * predictChunk
)

// predictScratchKey identifies the batch scorer's slot in an engine
// worker's local store.
type predictScratchKey struct{}

// predictScratch holds one worker's reusable buffers for chunked
// prediction: the encoded input rows of the current chunk and each
// family's prediction scratch, keyed by the family's artifact tag. Inside
// a pool the buffers live as long as the worker, so every chunk and every
// fold evaluation the worker scores reuses them — even when the worker
// serves a mix of families.
type predictScratch struct {
	buf  dataset.RowBuffer
	fams map[string]model.Scratch
}

// scratchFor returns the worker's reusable scratch for one family,
// creating it on first use. Families that need no scratch cache their nil
// so NewScratch runs once per worker, not once per call.
func (ps *predictScratch) scratchFor(fam model.Family) model.Scratch {
	s, ok := ps.fams[fam.Tag]
	if !ok {
		if ps.fams == nil {
			ps.fams = make(map[string]model.Scratch, 1)
		}
		s = fam.NewScratch()
		ps.fams[fam.Tag] = s
	}
	return s
}

func predictScratchFrom(ctx context.Context) *predictScratch {
	return engine.WorkerLocal(ctx, predictScratchKey{}, func() any { return new(predictScratch) }).(*predictScratch)
}

// scoreEncoded runs the family's batched kernel over encoded rows,
// writing raw-unit predictions into out (len(out) == len(rows)).
func (p *Predictor) scoreEncoded(ps *predictScratch, out []float64, rows [][]float64) {
	p.model.PredictAllInto(out, rows, ps.scratchFor(p.fam))
	for i := range out {
		out[i] = p.enc.UnscaleTarget(out[i])
	}
}

// CheckRows encodes raw rows with the predictor's encoder and discards
// the result: a nil return means PredictRowsInto on the same rows cannot
// fail with a row error. Only the benchmark's resolve rung calls it; the
// serving path encodes each row once, straight into pooled scratch.
func (p *Predictor) CheckRows(rows [][]dataset.Value) error {
	var buf dataset.RowBuffer
	_, err := p.enc.EncodeRows(&buf, rows)
	return err
}

// PredictRowsInto scores a batch of raw records into out, which must
// have len(rows) elements: the rows are encoded into worker-local
// buffers and scored by PredictEncodedInto, so steady-state calls on a
// worker context allocate nothing and produce predictions bit-identical
// to Predict on each row.
func (p *Predictor) PredictRowsInto(ctx context.Context, out []float64, rows [][]dataset.Value) error {
	enc, err := p.enc.EncodeRows(&predictScratchFrom(ctx).buf, rows)
	if err != nil {
		return err
	}
	return p.PredictEncodedInto(ctx, out, enc)
}

// PredictEncodedInto scores rows already encoded by the predictor's
// encoder into out, which must have len(rows) elements. It is the serving
// batcher's kernel entry: the family's batched kernel runs on
// worker-local scratch (engine.WorkerLocal — give long-lived callers a
// context from engine.NewWorkerContext), so steady-state calls allocate
// nothing.
func (p *Predictor) PredictEncodedInto(ctx context.Context, out []float64, rows [][]float64) error {
	if len(out) != len(rows) {
		return fmt.Errorf("core: out has %d slots for %d rows", len(out), len(rows))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A row of the wrong width must never reach a kernel.
	for i, x := range rows {
		if len(x) != p.enc.NumColumns() {
			return fmt.Errorf("core: encoded row %d has %d columns, %v takes %d", i, len(x), p.kind, p.enc.NumColumns())
		}
	}
	p.scoreEncoded(predictScratchFrom(ctx), out, rows)
	return nil
}

// PredictDataset scores every record of a dataset. Large datasets (the
// whole-space predictions of Figure 1a) are scored as a chunked parallel
// map on the engine pool; output order always matches record order and is
// independent of scheduling. Each chunk is encoded into worker-local
// buffers and streamed through the family's batched kernel, and its
// in-kernel time is reported as a KernelTime event, so RunReports break
// out predict-phase kernel throughput.
func (p *Predictor) PredictDataset(ctx context.Context, d *dataset.Dataset) ([]float64, error) {
	if d == nil {
		return nil, errors.New("core: nil dataset")
	}
	out := make([]float64, d.Len())
	label := p.hook.Label("predict %v", p.kind)
	score := func(ctx context.Context, lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		ps := predictScratchFrom(ctx)
		rows, err := p.enc.EncodeRows(&ps.buf, d.Rows(lo, hi))
		if err != nil {
			return err
		}
		p.scoreEncoded(ps, out[lo:hi], rows)
		if p.hook != nil {
			p.hook.Emit(engine.Event{
				Kind: engine.KernelTime, Label: label,
				Model: p.kind.String(), Fold: -1,
				Samples: int64(hi - lo), Elapsed: time.Since(start),
			})
		}
		return nil
	}
	if d.Len() < predictParallelMin {
		if err := score(ctx, 0, d.Len()); err != nil {
			return nil, err
		}
		return out, nil
	}
	err := engine.Map(ctx, engine.Options{Hook: p.hook}, d.Len(), predictChunk, label, score)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Evaluate returns the mean and standard deviation of the absolute
// percentage errors of the predictor on a dataset — the paper's error
// metric (mean) and its Figure 7/8 error bars (standard deviation). Each
// prediction is overwritten by its APE, so the errors need no slice of
// their own.
func (p *Predictor) Evaluate(ctx context.Context, d *dataset.Dataset) (meanAPE, stdAPE float64, err error) {
	if d == nil || d.Len() == 0 {
		return 0, 0, errors.New("core: empty evaluation dataset")
	}
	yhat, err := p.PredictDataset(ctx, d)
	if err != nil {
		return 0, 0, err
	}
	for i, y := range yhat {
		yhat[i] = stat.APE(y, d.Target(i))
	}
	return stat.Mean(yhat), stat.StdDev(yhat), nil
}
