package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/engine"
	"perfpred/internal/faultinject"
)

// ErrOverloaded is returned (and mapped to 429 + Retry-After: 5) when
// the admission queue is full: the daemon sheds the request instead of
// letting latency grow without bound.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrDraining is returned (and mapped to 503) for requests arriving
// after shutdown began.
var ErrDraining = errors.New("serve: server draining")

// BatcherConfig sizes the micro-batcher.
type BatcherConfig struct {
	// QueueDepth bounds the admission queue (queued requests, not rows);
	// a full queue sheds with ErrOverloaded. Default 256.
	QueueDepth int
	// MaxBatch caps the rows coalesced into one kernel call. Default 64.
	MaxBatch int
	// Deprecated: ignored; the batcher never lingers.
	MaxWait time.Duration
	// Workers is the number of batch-executor goroutines, each owning
	// engine worker-local scratch. Default GOMAXPROCS.
	Workers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	d := DefaultConfig().Batcher
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	return c
}

// scoreFunc scores encoded rows of one model into out (len(out) == total
// rows). The production implementation is Predictor.PredictEncodedInto;
// tests inject stubs to pin shed and drain behaviour.
type scoreFunc func(ctx context.Context, m *Model, rows [][]float64, out []float64) error

// request is one admitted prediction (single row or a whole batch body —
// either way it occupies one queue slot). The caller owns it, so a
// request reused across Predict calls costs no allocation.
type request struct {
	ctx       context.Context
	m         *Model
	rows      [][]float64
	out       []float64
	done      chan error
	submitted time.Time
}

// Batcher funnels predictions through a bounded admission queue into
// coalescing batch workers. Each worker goroutine owns an engine
// worker-local context, so the kernel scratch behind PredictEncodedInto
// is allocated once per worker and reused for every batch it ever
// executes — the serving path stays on the zero-allocation kernels in
// steady state.
type Batcher struct {
	cfg      BatcherConfig
	score    scoreFunc
	met      *metrics
	queue    chan *request
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	// fi is the daemon's fault injector, snapshotted at construction:
	// in production the no-op, whose every hook is a single branch. Chaos
	// harnesses activate an injector before building the daemon.
	fi *faultinject.Injector
}

// newBatcher starts cfg.Workers batch executors.
func newBatcher(cfg BatcherConfig, met *metrics, score scoreFunc) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:   cfg,
		score: score,
		met:   met,
		queue: make(chan *request, cfg.QueueDepth),
		stop:  make(chan struct{}),
		fi:    faultinject.Active(),
	}
	for i := 0; i < cfg.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// Predict admits rows, encoded by m's encoder, as req and blocks until
// the batch worker writes their predictions into out (len(out) ==
// len(rows)), the request's context expires, or the request is shed.
// Admission is non-blocking: a full queue returns ErrOverloaded
// immediately. req, rows and out are the caller's; Predict makes req's
// done channel the first time only. After an error the request may still
// be queued, and its worker will read rows and write out and req, so the
// caller must not reuse any of them.
func (b *Batcher) Predict(ctx context.Context, req *request, m *Model, rows [][]float64, out []float64) error {
	if b.draining.Load() {
		return ErrDraining
	}
	// Admission fault point: injected latency stalls the caller here (so
	// its deadline can expire before the request ever takes a queue
	// slot), a forced error rejects the request outright.
	if fired, err := b.fi.Hit(ctx, faultinject.ServeAdmit); fired {
		b.met.faults.Inc()
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if req.done == nil {
		req.done = make(chan error, 1)
	}
	req.ctx, req.m, req.rows, req.out, req.submitted = ctx, m, rows, out, time.Now()
	select {
	case b.queue <- req:
	default:
		b.met.shed.Inc()
		return ErrOverloaded
	}
	select {
	case err := <-req.done:
		if err == nil {
			// The worker is done with req: drop its references so a
			// pooled request pins no context or model.
			*req = request{done: req.done}
		}
		return err
	case <-ctx.Done():
		// The worker may still score the request; done is buffered so it
		// never blocks on an abandoned request.
		return ctx.Err()
	}
}

// Close stops admission and waits until the workers have drained every
// queued request — nothing admitted before Close is left unanswered.
func (b *Batcher) Close() {
	if b.draining.CompareAndSwap(false, true) {
		close(b.stop)
	}
	b.wg.Wait()
}

// workerScratch is one worker's reusable batch-assembly buffers.
type workerScratch struct {
	batch []*request
	group []*request
	live  []*request
	rows  [][]float64
	out   []float64
}

func (b *Batcher) worker() {
	defer b.wg.Done()
	// One worker-local store per goroutine for the batcher's lifetime:
	// every batch this worker scores reuses the same kernel scratch.
	wctx := engine.NewWorkerContext(context.Background())
	ws := &workerScratch{}
	for {
		select {
		case req := <-b.queue:
			b.runBatch(wctx, ws, req)
		case <-b.stop:
			for {
				select {
				case req := <-b.queue:
					b.runBatch(wctx, ws, req)
				default:
					return
				}
			}
		}
	}
}

// runBatch takes first plus whatever is already queued behind it (up to
// MaxBatch total rows, never waiting for more) and executes them grouped
// by model.
func (b *Batcher) runBatch(wctx context.Context, ws *workerScratch, first *request) {
	b.met.queueDepth.Set(float64(len(b.queue)))
	batch := append(ws.batch[:0], first)
	total := len(first.rows)
gather:
	for total < b.cfg.MaxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
			total += len(req.rows)
		default:
			break gather
		}
	}
	ws.batch = batch

	// Execute per-model groups: a stable partition keeps arrival order
	// within each group, so results are assigned by position.
	remaining := batch
	for len(remaining) > 0 {
		m := remaining[0].m
		group := ws.group[:0]
		// In-place filter: writes to keep never outrun the range reads.
		keep := remaining[:0]
		for _, req := range remaining {
			if req.m == m {
				group = append(group, req)
			} else {
				keep = append(keep, req)
			}
		}
		ws.group = group
		b.scoreGroup(wctx, ws, m, group)
		clear(group)
		remaining = keep
	}
	// A request lives in its caller's scratch: a pointer left here would
	// keep that whole scratch from the GC after the caller dropped it.
	clear(batch)
}

// scoreGroup flattens one model's requests into a single kernel call and
// fans the results back out. If the call fails, every live request in
// the group gets the error: the kernel cannot reject a row here (each was
// encoded by m's own encoder, out is sized to the rows, and the worker
// context never ends), so the only failure is an injected flush fault.
func (b *Batcher) scoreGroup(wctx context.Context, ws *workerScratch, m *Model, group []*request) {
	now := time.Now()
	live := ws.live[:0]
	rows := ws.rows[:0]
	for _, req := range group {
		b.met.queueWait.Observe(now.Sub(req.submitted).Seconds())
		// Propagated per-request deadline: a request whose context
		// expired while queued is answered with its context error, not
		// scored.
		if err := req.ctx.Err(); err != nil {
			b.met.errors.Inc()
			req.done <- err
			continue
		}
		live = append(live, req)
		rows = append(rows, req.rows...)
	}
	ws.live, ws.rows = live, rows
	if len(live) == 0 {
		return
	}
	if cap(ws.out) < len(rows) {
		ws.out = make([]float64, len(rows))
	}
	out := ws.out[:len(rows)]

	// Flush fault point: injected latency slows the kernel flush (queue
	// pressure builds until admission sheds), a forced error fails the
	// whole group.
	kstart := time.Now()
	var err error
	if fired, ferr := b.fi.Hit(wctx, faultinject.ServeBatchFlush); fired {
		b.met.faults.Inc()
		err = ferr
	}
	if err == nil {
		err = b.score(wctx, m, rows, out)
	}
	b.met.kernel.Observe(time.Since(kstart).Seconds())
	b.met.batches.Inc()
	b.met.batchSize.Observe(float64(len(rows)))

	off := 0
	for _, req := range live {
		if err == nil {
			copy(req.out, out[off:off+len(req.rows)])
		}
		off += len(req.rows)
		b.finish(req, err)
	}
	clear(live)
	clear(rows)
}

// finish records the outcome and releases the waiting caller.
func (b *Batcher) finish(req *request, err error) {
	if err == nil {
		b.met.predictions.Add(int64(len(req.rows)))
	} else {
		b.met.errors.Inc()
	}
	req.done <- err
}
