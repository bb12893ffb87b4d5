package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/engine"
	"perfpred/internal/faultinject"
)

// ErrOverloaded is returned (and mapped to 429 + Retry-After) when the
// admission queue is full: the daemon sheds the request instead of
// letting latency grow without bound. Shed errors are actually
// *OverloadedError values carrying a queue-pressure-derived Retry-After;
// errors.Is(err, ErrOverloaded) matches them.
var ErrOverloaded = errors.New("serve: admission queue full")

// OverloadedError is the concrete shed error: ErrOverloaded plus the
// Retry-After the HTTP layer should advertise, derived from how full
// the admission queue was at the moment of shedding.
type OverloadedError struct {
	// RetryAfter is the suggested client back-off in whole seconds,
	// between 1 (queue momentarily full but draining) and 5 (sustained
	// saturation).
	RetryAfter int
}

func (e *OverloadedError) Error() string { return ErrOverloaded.Error() }

// Is makes errors.Is(err, ErrOverloaded) match, so every existing
// caller and test keeps working against the sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// retryAfterSeconds maps observed queue pressure onto a client back-off:
// 1s at an empty-to-quarter-full queue up to 5s at or beyond capacity,
// in linear steps. Shedding happens when the enqueue attempt finds the
// channel full, but the observed length can lag concurrent dequeues —
// hence pressure, not a constant.
func retryAfterSeconds(queued, capacity int) int {
	if capacity <= 0 {
		return 1
	}
	if queued < 0 {
		queued = 0
	}
	if queued > capacity {
		queued = capacity
	}
	return 1 + 4*queued/capacity
}

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
	// MaxWait is how long an idle batch worker lingers for more requests
	// after picking up the first one, trading that bounded latency for
	// bigger kernel batches. The zero value (kept by withDefaults)
	// coalesces only already-queued requests; perfpredd's -batch-wait
	// flag defaults to 500µs.
	MaxWait time.Duration
	// Workers is the number of batch-executor goroutines, each owning
	// engine worker-local scratch. Default GOMAXPROCS.
	Workers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// scoreFunc scores encoded rows of one model into out (len(out) == total
// rows). The production implementation is Predictor.PredictEncodedInto;
// tests inject stubs to pin shed and drain behaviour.
type scoreFunc func(ctx context.Context, m *Model, rows [][]float64, out []float64) error

// request is one admitted prediction (single row or a whole batch body —
// either way it occupies one queue slot).
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
	// fi and clock are snapshotted from the process-global fault
	// injector at construction: the production no-op makes every hook a
	// single branch and clock a plain time.Now, so the hot path gains no
	// allocations or locks. Chaos harnesses activate an injector before
	// building the daemon to arm them.
	fi    *faultinject.Injector
	clock faultinject.Clock
}

// newBatcher starts cfg.Workers batch executors.
func newBatcher(cfg BatcherConfig, met *metrics, score scoreFunc) *Batcher {
	cfg = cfg.withDefaults()
	fi := faultinject.Active()
	b := &Batcher{
		cfg:   cfg,
		score: score,
		met:   met,
		queue: make(chan *request, cfg.QueueDepth),
		stop:  make(chan struct{}),
		fi:    fi,
		clock: fi.Clock(),
	}
	for i := 0; i < cfg.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// Predict admits rows, encoded by m's encoder, and blocks until the
// batch worker delivers the predictions, the request's context expires,
// or the request is shed. Admission is non-blocking: a full queue
// returns ErrOverloaded immediately. The returned slice is owned by the
// caller. After an error the request may still be queued, and its worker
// will read rows, so the caller must not reuse them.
func (b *Batcher) Predict(ctx context.Context, m *Model, rows [][]float64) ([]float64, error) {
	if b.draining.Load() {
		return nil, ErrDraining
	}
	// Admission fault point: injected latency stalls the caller here (so
	// its deadline can expire before the request ever takes a queue
	// slot), a forced error rejects the request outright.
	if fired, err := b.fi.Hit(ctx, faultinject.ServeAdmit); fired {
		b.met.faults.Inc()
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &request{
		ctx:       ctx,
		m:         m,
		rows:      rows,
		out:       make([]float64, len(rows)),
		done:      make(chan error, 1),
		submitted: b.clock.Now(),
	}
	select {
	case b.queue <- req:
	default:
		b.met.shed.Inc()
		return nil, &OverloadedError{RetryAfter: retryAfterSeconds(len(b.queue), cap(b.queue))}
	}
	select {
	case err := <-req.done:
		if err != nil {
			return nil, err
		}
		return req.out, nil
	case <-ctx.Done():
		// The worker may still score the request; done is buffered so it
		// never blocks on an abandoned request.
		return nil, ctx.Err()
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

// runBatch coalesces queued requests behind first (up to MaxBatch total
// rows, lingering MaxWait for stragglers), then executes them grouped by
// model.
func (b *Batcher) runBatch(wctx context.Context, ws *workerScratch, first *request) {
	b.met.queueDepth.Set(float64(len(b.queue)))
	batch := append(ws.batch[:0], first)
	total := len(first.rows)
	var timer *time.Timer
gather:
	for total < b.cfg.MaxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
			total += len(req.rows)
		default:
			if b.cfg.MaxWait <= 0 || b.draining.Load() {
				break gather
			}
			if timer == nil {
				timer = time.NewTimer(b.cfg.MaxWait)
			}
			select {
			case req := <-b.queue:
				batch = append(batch, req)
				total += len(req.rows)
			case <-timer.C:
				break gather
			case <-b.stop:
				break gather
			}
		}
	}
	if timer != nil {
		timer.Stop()
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
		remaining = keep
	}
}

// scoreGroup flattens one model's requests into a single kernel call and
// fans the results back out. If the combined batch fails and held more
// than one request, each request is rescored alone so one bad row only
// fails its own request.
func (b *Batcher) scoreGroup(wctx context.Context, ws *workerScratch, m *Model, group []*request) {
	now := b.clock.Now()
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
	// combined batch — which, for multi-request batches, exercises the
	// per-request rescore path below.
	kstart := b.clock.Now()
	var err error
	if fired, ferr := b.fi.Hit(wctx, faultinject.ServeBatchFlush); fired {
		b.met.faults.Inc()
		err = ferr
	}
	if err == nil {
		err = b.score(wctx, m, rows, out)
	}
	b.met.kernel.Observe(b.clock.Since(kstart).Seconds())
	b.met.batches.Inc()
	b.met.batchSize.Observe(float64(len(rows)))

	if err != nil && len(live) > 1 {
		for _, req := range live {
			b.finish(req, b.score(wctx, req.m, req.rows, req.out))
		}
		return
	}
	off := 0
	for _, req := range live {
		if err == nil {
			copy(req.out, out[off:off+len(req.rows)])
		}
		off += len(req.rows)
		b.finish(req, err)
	}
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
