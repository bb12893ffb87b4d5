package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
)

// predict runs rows through b as a one-shot caller would: a fresh
// request and output slice per call.
func predict(ctx context.Context, b *Batcher, m *Model, rows [][]float64) ([]float64, error) {
	out := make([]float64, len(rows))
	if err := b.Predict(ctx, new(request), m, rows, out); err != nil {
		return nil, err
	}
	return out, nil
}

// goldenPredictions scores every row sequentially through the scalar
// Predict path — the reference the batcher must match bit-for-bit.
func goldenPredictions(t *testing.T, p *core.Predictor, d *dataset.Dataset) []float64 {
	t.Helper()
	want := make([]float64, d.Len())
	for i := range want {
		y, err := p.Predict(d.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	return want
}

// goldenModels trains an "nns" and an "lre" model on d and returns, by
// name, each model, its sequential goldens for every row of d, and those
// rows encoded as the handler would encode them.
func goldenModels(t *testing.T, d *dataset.Dataset) (map[string]*Model, map[string][]float64, map[string][][]float64) {
	t.Helper()
	models := map[string]*Model{
		"nns": {Name: "nns", Pred: trainModel(t, core.NNS, d)},
		"lre": {Name: "lre", Pred: trainModel(t, core.LRE, d)},
	}
	golden := map[string][]float64{}
	encoded := map[string][][]float64{}
	for name, m := range models {
		golden[name] = goldenPredictions(t, m.Pred, d)
		encoded[name] = encodeRows(t, m, d.Rows(0, d.Len()))
	}
	return models, golden, encoded
}

// TestBatcherGoldenEquivalence is the serving analogue of the kernel
// equivalence harness in neural/reference_test.go: N goroutines with a
// mix of per-request deadlines hammer the micro-batcher with single-row
// and batch requests against two models at once, and every prediction
// must be bit-identical to the sequential scalar path — coalescing,
// grouping and scheduling must never change an answer.
func TestBatcherGoldenEquivalence(t *testing.T) {
	models, golden, encoded := goldenModels(t, synthDataset(t, 96, 4))
	b := newBatcher(BatcherConfig{QueueDepth: 1024, MaxBatch: 16, Workers: 4},
		newMetrics(), scoreModel)
	defer b.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "nns"
			if g%2 == 1 {
				name = "lre"
			}
			m, want, rows := models[name], golden[name], encoded[name]
			for i := range rows {
				// Deadline mix: half the goroutines run with a generous
				// per-request deadline, half with none.
				ctx := context.Background()
				if g%4 < 2 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
					defer cancel()
				}
				out, err := predict(ctx, b, m, rows[i:i+1])
				if err != nil {
					errs <- err
					return
				}
				if out[0] != want[i] {
					t.Errorf("%s row %d: concurrent %v != sequential %v", name, i, out[0], want[i])
					return
				}
			}
			// One whole-space batch body per goroutine, interleaved with
			// everyone else's single-row traffic.
			out, err := predict(context.Background(), b, m, rows)
			if err != nil {
				errs <- err
				return
			}
			for i := range out {
				if out[i] != want[i] {
					t.Errorf("%s batch row %d: %v != %v", name, i, out[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatcherShedsUnderLoad pins the 429 path: a full admission queue
// sheds immediately with ErrOverloaded and counts the shed, and every
// admitted request is still answered.
func TestBatcherShedsUnderLoad(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	score := func(_ context.Context, _ *Model, rows [][]float64, out []float64) error {
		once.Do(func() { entered <- struct{}{} })
		<-release
		for i := range out {
			out[i] = 42
		}
		return nil
	}
	met := newMetrics()
	b := newBatcher(BatcherConfig{QueueDepth: 2, MaxBatch: 1, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	type res struct {
		out []float64
		err error
	}
	results := make(chan res, 3)
	submit := func() {
		go func() {
			out, err := predict(context.Background(), b, m, row)
			results <- res{out, err}
		}()
	}

	// First request occupies the single worker (blocked inside score)…
	submit()
	<-entered
	// …the next two fill the admission queue…
	submit()
	submit()
	deadline := time.After(5 * time.Second)
	for len(b.queue) < 2 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// …and the queue being full, the next is shed synchronously.
	if _, err := predict(context.Background(), b, m, row); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Predict err = %v, want ErrOverloaded", err)
	}
	if got := met.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Releasing the worker answers all three admitted requests.
	close(release)
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil || r.out[0] != 42 {
			t.Fatalf("admitted request %d: out=%v err=%v", i, r.out, r.err)
		}
	}
	b.Close()
	if got := met.predictions.Value(); got != 3 {
		t.Fatalf("predictions counter = %d, want 3", got)
	}
}

// TestBatcherDrain pins graceful shutdown: Close answers every admitted
// request before returning, and later requests get ErrDraining.
func TestBatcherDrain(t *testing.T) {
	release := make(chan struct{})
	score := func(_ context.Context, _ *Model, rows [][]float64, out []float64) error {
		<-release
		for i := range out {
			out[i] = 7
		}
		return nil
	}
	met := newMetrics()
	b := newBatcher(BatcherConfig{QueueDepth: 16, MaxBatch: 1, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	const n = 5
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			out, err := predict(context.Background(), b, m, row)
			if err == nil && out[0] != 7 {
				err = errors.New("wrong prediction")
			}
			results <- err
		}()
	}
	// Wait until all five are admitted (one may already be with the
	// worker, the rest queued).
	deadline := time.After(5 * time.Second)
	for len(b.queue) < n-1 {
		select {
		case <-deadline:
			t.Fatal("requests never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	b.Close()
	// Close returns only after the workers delivered every admitted
	// request — the counter is final by now.
	if got := met.predictions.Value(); got != n {
		t.Fatalf("predictions counter after Close = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("drained request %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", i)
		}
	}
	if _, err := predict(context.Background(), b, m, row); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Predict err = %v, want ErrDraining", err)
	}
}

// TestBatcherExpiredDeadline pins per-request deadline propagation: a
// request whose context expires while queued is answered with the
// context error, not scored.
func TestBatcherExpiredDeadline(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var scored int
	var mu sync.Mutex
	score := func(_ context.Context, _ *Model, rows [][]float64, out []float64) error {
		once.Do(func() { entered <- struct{}{} })
		<-release
		mu.Lock()
		scored += len(rows)
		mu.Unlock()
		for i := range out {
			out[i] = 1
		}
		return nil
	}
	met := newMetrics()
	b := newBatcher(BatcherConfig{QueueDepth: 16, MaxBatch: 1, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	// Occupy the worker, then queue a request with a tiny deadline.
	go predict(context.Background(), b, m, row) //nolint:errcheck // released below
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := predict(ctx, b, m, row)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request err = %v after %v, want DeadlineExceeded", err, time.Since(start))
	}
	close(release)
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if scored != 1 {
		t.Fatalf("scored %d rows, want 1 (expired request must not be scored)", scored)
	}
	if met.errors.Value() != 1 {
		t.Fatalf("errors counter = %d, want 1", met.errors.Value())
	}
}

// kernelCall records one scorer invocation: which model, how many rows.
type kernelCall struct {
	model string
	rows  int
}

// heldBatcher is a one-worker batcher whose first kernel call blocks
// until free is called. A test parks the worker on a holder request,
// queues more behind it and frees it: the worker's next gather then
// takes everything queued, with no timing involved.
type heldBatcher struct {
	*Batcher
	entered  chan struct{}
	release  chan struct{}
	freeOnce sync.Once
	mu       sync.Mutex
	calls    []kernelCall
}

// newHeldBatcher starts a held batcher that t's cleanup frees and
// closes, so a failed test never leaves the worker parked.
func newHeldBatcher(t *testing.T, cfg BatcherConfig, met *metrics) *heldBatcher {
	h := &heldBatcher{entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	cfg.Workers = 1
	h.Batcher = newBatcher(cfg, met, func(ctx context.Context, m *Model, rows [][]float64, out []float64) error {
		once.Do(func() {
			close(h.entered)
			<-h.release
		})
		h.mu.Lock()
		h.calls = append(h.calls, kernelCall{m.Name, len(rows)})
		h.mu.Unlock()
		return scoreModel(ctx, m, rows, out)
	})
	t.Cleanup(func() {
		h.free()
		h.Close()
	})
	return h
}

// free releases the parked worker; later calls do nothing.
func (h *heldBatcher) free() { h.freeOnce.Do(func() { close(h.release) }) }

// waitQueued blocks until at least n requests wait in the queue.
func (h *heldBatcher) waitQueued(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for len(h.queue) < n {
		select {
		case <-deadline:
			t.Fatalf("queue holds %d requests, want %d", len(h.queue), n)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func (h *heldBatcher) kernelCalls() []kernelCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.calls)
}

// submission is one queued request of a held-batcher test and its
// eventual answer.
type submission struct {
	name string
	idx  []int // dataset rows
	done chan error
	out  []float64
}

// submit sends rows idx of model name through h in the background. With
// queued > 0 it waits until the queue holds that many requests, so the
// test fixes the arrival order.
func submit(t *testing.T, h *heldBatcher, models map[string]*Model, encoded map[string][][]float64, name string, idx []int, queued int) *submission {
	t.Helper()
	s := &submission{name: name, idx: idx, done: make(chan error, 1)}
	rows := make([][]float64, len(idx))
	for i, j := range idx {
		rows[i] = encoded[name][j]
	}
	go func() {
		out, err := predict(context.Background(), h.Batcher, models[name], rows)
		s.out = out
		s.done <- err
	}()
	if queued > 0 {
		h.waitQueued(t, queued)
	}
	return s
}

// TestBatcherCoalescesQueuedRequests pins the batch policy without any
// timing: a worker that frees up takes every request already queued (up
// to MaxBatch rows) in one gather and makes one kernel call per model
// group, while a MaxBatch-row body is scored on its own.
func TestBatcherCoalescesQueuedRequests(t *testing.T) {
	models, golden, encoded := goldenModels(t, synthDataset(t, 32, 4))
	const maxBatch = 16
	check := func(t *testing.T, subs []*submission) {
		t.Helper()
		for _, s := range subs {
			if err := <-s.done; err != nil {
				t.Fatalf("%s rows %v: %v", s.name, s.idx, err)
			}
			for i, j := range s.idx {
				if s.out[i] != golden[s.name][j] {
					t.Errorf("%s row %d: coalesced %v != sequential %v", s.name, j, s.out[i], golden[s.name][j])
				}
			}
		}
	}

	t.Run("one gather", func(t *testing.T) {
		met := newMetrics()
		h := newHeldBatcher(t, BatcherConfig{QueueDepth: 64, MaxBatch: maxBatch}, met)
		subs := []*submission{submit(t, h, models, encoded, "nns", []int{0}, 0)}
		<-h.entered
		// Interleave the two models so the per-model partition matters.
		for i, q := range []struct {
			name string
			idx  []int
		}{
			{"nns", []int{1}}, {"lre", []int{2, 3}}, {"nns", []int{4, 5, 6}}, {"lre", []int{7}}, {"nns", []int{8}},
		} {
			subs = append(subs, submit(t, h, models, encoded, q.name, q.idx, i+1))
		}
		h.free()
		check(t, subs)

		want := []kernelCall{{"nns", 1}, {"nns", 5}, {"lre", 3}}
		if got := h.kernelCalls(); !slices.Equal(got, want) {
			t.Fatalf("kernel calls %v, want %v", got, want)
		}
		// serve.batch_size holds one sample per group: {1, 5, 3}.
		bs := met.batchSize.Snapshot()
		if bs.Count != 3 || bs.Sum != 9 || bs.Min != 1 || bs.Max != 5 {
			t.Fatalf("serve.batch_size %+v, want samples 1, 5, 3", bs)
		}
		if got := met.batches.Value(); got != 3 {
			t.Fatalf("serve.batches = %d, want 3", got)
		}
	})

	t.Run("full body alone", func(t *testing.T) {
		met := newMetrics()
		h := newHeldBatcher(t, BatcherConfig{QueueDepth: 64, MaxBatch: maxBatch}, met)
		body := make([]int, maxBatch)
		for i := range body {
			body[i] = i
		}
		subs := []*submission{submit(t, h, models, encoded, "nns", []int{0}, 0)}
		<-h.entered
		subs = append(subs,
			submit(t, h, models, encoded, "nns", body, 1),
			submit(t, h, models, encoded, "nns", []int{20}, 2))
		h.free()
		check(t, subs)

		want := []kernelCall{{"nns", 1}, {"nns", maxBatch}, {"nns", 1}}
		if got := h.kernelCalls(); !slices.Equal(got, want) {
			t.Fatalf("kernel calls %v, want %v", got, want)
		}
	})
}

// TestBatcherFlushErrorFailsWholeGroup pins group failure: an injected
// serve.batch_flush error fails every request of the gathered group with
// that error, and nothing is rescored.
func TestBatcherFlushErrorFailsWholeGroup(t *testing.T) {
	models, golden, encoded := goldenModels(t, synthDataset(t, 32, 4))
	met := newMetrics()
	h := newHeldBatcher(t, BatcherConfig{QueueDepth: 64, MaxBatch: 64}, met)
	holder := submit(t, h, models, encoded, "nns", []int{0}, 0)
	<-h.entered
	// Arm the fault only now, while the worker is parked past the
	// holder's flush hook: every later read of fi (the queued requests'
	// admission, the worker's next flush) is ordered after this write.
	errFlush := errors.New("injected flush failure")
	inj := faultinject.New(map[faultinject.Point]faultinject.Plan{
		faultinject.ServeBatchFlush: {Every: 1, Err: errFlush},
	})
	h.fi = inj
	group := []*submission{
		submit(t, h, models, encoded, "nns", []int{1}, 1),
		submit(t, h, models, encoded, "nns", []int{2, 3}, 2),
		submit(t, h, models, encoded, "nns", []int{4}, 3),
	}
	h.free()

	if err := <-holder.done; err != nil || holder.out[0] != golden["nns"][0] {
		t.Fatalf("holder: out %v err %v", holder.out, err)
	}
	for _, s := range group {
		if err := <-s.done; !errors.Is(err, errFlush) {
			t.Fatalf("rows %v: err %v, want the injected flush error", s.idx, err)
		}
	}
	if got, want := h.kernelCalls(), []kernelCall{{"nns", 1}}; !slices.Equal(got, want) {
		t.Fatalf("kernel calls %v, want %v: the failed group was rescored", got, want)
	}
	if got := met.errors.Value(); got != 3 {
		t.Fatalf("serve.errors = %d, want 3", got)
	}
	if got := met.predictions.Value(); got != 1 {
		t.Fatalf("serve.predictions = %d, want 1", got)
	}
	if st := inj.Stats()["serve.batch_flush"]; st.Fires != 1 || met.faults.Value() != 1 {
		t.Fatalf("flush fires %d, serve.faults %d, want 1 each", st.Fires, met.faults.Value())
	}
}

// TestBatcherAbandonedScratchNotPooled pins the rule that makes a
// request's scratch safe to reuse: a predict whose context ends while
// its batcher request is queued, or while the worker scores it, answers
// 504 and keeps its rowScratch out of the pool, because the worker still
// holds the request and writes into that scratch after the handler has
// returned.
func TestBatcherAbandonedScratchNotPooled(t *testing.T) {
	d := synthDataset(t, 64, 6)
	dir := t.TempDir()
	saveModel(t, dir, "lre", trainModel(t, core.LRE, d))
	body, err := json.Marshal(map[string]any{"model": "lre", "row": rowJSON(d, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, queued := range []bool{true, false} {
		s, err := New(Config{ModelsDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		entered, release := make(chan struct{}, 1), make(chan struct{})
		s.bat.Close()
		s.bat = newBatcher(BatcherConfig{MaxBatch: 1, Workers: 1}, s.met,
			func(_ context.Context, _ *Model, _ [][]float64, out []float64) error {
				entered <- struct{}{}
				<-release
				for i := range out {
					out[i] = 42
				}
				return nil
			})
		var made []*rowScratch
		s.scratch.New = func() any {
			ws := new(rowScratch)
			made = append(made, ws)
			return ws
		}
		m, _, _ := s.Registry().Resolve("lre")
		if queued {
			// Park the worker on another request, so the predict queues.
			go predict(context.Background(), s.bat, m, [][]float64{{1}}) //nolint:errcheck // released below
			<-entered
		}

		ctx, cancel := context.WithCancel(context.Background())
		answered := make(chan int)
		go func() {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx))
			answered <- w.Code
		}()
		if queued {
			deadline := time.Now().Add(5 * time.Second)
			for len(s.bat.queue) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the predict never queued")
				}
				time.Sleep(time.Millisecond)
			}
		} else {
			<-entered
		}
		cancel()
		if code := <-answered; code != http.StatusGatewayTimeout {
			t.Fatalf("queued=%v: abandoned predict answered %d, want 504", queued, code)
		}
		close(release)

		ws := made[0]
		var want error
		if queued {
			want = context.Canceled
		}
		select {
		case err := <-ws.req.done:
			if err != want {
				t.Fatalf("queued=%v: worker answered the abandoned request %v, want %v", queued, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued=%v: the worker never answered the abandoned request", queued)
		}
		if !queued && ws.missOut[0] != 42 {
			t.Fatalf("the worker's prediction %v did not land in the abandoned scratch", ws.missOut[0])
		}
		for range 4 {
			if s.scratch.Get() == any(ws) {
				t.Fatalf("queued=%v: the abandoned scratch went back to the pool", queued)
			}
		}
	}
}
