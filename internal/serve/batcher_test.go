package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
)

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

// TestBatcherGoldenEquivalence is the serving analogue of the kernel
// equivalence harness in neural/reference_test.go: N goroutines with a
// mix of per-request deadlines hammer the micro-batcher with single-row
// and batch requests against two models at once, and every prediction
// must be bit-identical to the sequential scalar path — coalescing,
// grouping and scheduling must never change an answer.
func TestBatcherGoldenEquivalence(t *testing.T) {
	d := synthDataset(t, 96, 4)
	models := map[string]*Model{
		"nns": {Name: "nns", Pred: trainModel(t, core.NNS, d)},
		"lre": {Name: "lre", Pred: trainModel(t, core.LRE, d)},
	}
	golden := map[string][]float64{
		"nns": goldenPredictions(t, models["nns"].Pred, d),
		"lre": goldenPredictions(t, models["lre"].Pred, d),
	}
	encoded := map[string][][]float64{
		"nns": encodeRows(t, models["nns"], d.Rows(0, d.Len())),
		"lre": encodeRows(t, models["lre"], d.Rows(0, d.Len())),
	}

	b := newBatcher(BatcherConfig{QueueDepth: 1024, MaxBatch: 16, MaxWait: 200 * time.Microsecond, Workers: 4},
		newMetrics(nil), scoreModel)
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
				out, err := b.Predict(ctx, m, rows[i:i+1])
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
			out, err := b.Predict(context.Background(), m, rows)
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
	met := newMetrics(nil)
	b := newBatcher(BatcherConfig{QueueDepth: 2, MaxBatch: 1, MaxWait: 0, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	type res struct {
		out []float64
		err error
	}
	results := make(chan res, 3)
	submit := func() {
		go func() {
			out, err := b.Predict(context.Background(), m, row)
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
	if _, err := b.Predict(context.Background(), m, row); !errors.Is(err, ErrOverloaded) {
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
	met := newMetrics(nil)
	b := newBatcher(BatcherConfig{QueueDepth: 16, MaxBatch: 1, MaxWait: 0, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	const n = 5
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			out, err := b.Predict(context.Background(), m, row)
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
	if _, err := b.Predict(context.Background(), m, row); !errors.Is(err, ErrDraining) {
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
	met := newMetrics(nil)
	b := newBatcher(BatcherConfig{QueueDepth: 16, MaxBatch: 1, MaxWait: 0, Workers: 1}, met, score)
	m := &Model{Name: "stub"}
	row := [][]float64{{1}}

	// Occupy the worker, then queue a request with a tiny deadline.
	go b.Predict(context.Background(), m, row) //nolint:errcheck // released below
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.Predict(ctx, m, row)
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
