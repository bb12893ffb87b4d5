package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllTasks(t *testing.T) {
	var done [20]atomic.Bool
	tasks := make([]Task, len(done))
	for i := range tasks {
		i := i
		tasks[i] = Task{Label: fmt.Sprintf("t%d", i), Fold: -1, Run: func(ctx context.Context, _ int) error {
			done[i].Store(true)
			return nil
		}}
	}
	if err := Run(context.Background(), Options{Workers: 4}, tasks...); err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Fatalf("task %d did not run", i)
		}
	}
}

func TestRunBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	tasks := make([]Task, 24)
	for i := range tasks {
		tasks[i] = Task{Fold: -1, Run: func(ctx context.Context, _ int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}}
	}
	if err := Run(context.Background(), Options{Workers: workers}, tasks...); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

func TestRunFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		i := i
		tasks[i] = Task{Fold: -1, Run: func(ctx context.Context, _ int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			// Later tasks wait on cancellation so the test is not timing
			// dependent: once task 0 fails, these return promptly.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return errors.New("cancellation never arrived")
			}
		}}
	}
	err := Run(context.Background(), Options{Workers: 4}, tasks...)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == int64(len(tasks)) {
		t.Fatalf("all %d tasks ran; expected the queue to be abandoned after the failure", n)
	}
}

func TestRunReturnsFirstErrorInSubmissionOrder(t *testing.T) {
	// Two genuine failures: the submission-order-first one must win so
	// error reporting is deterministic.
	errA, errB := errors.New("a"), errors.New("b")
	var gate sync.WaitGroup
	gate.Add(2)
	tasks := []Task{
		{Fold: -1, Run: func(ctx context.Context, _ int) error { gate.Done(); gate.Wait(); return errA }},
		{Fold: -1, Run: func(ctx context.Context, _ int) error { gate.Done(); gate.Wait(); return errB }},
	}
	err := Run(context.Background(), Options{Workers: 2}, tasks...)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want %v", err, errA)
	}
}

func TestRunPanicRecovery(t *testing.T) {
	tasks := []Task{
		{Label: "ok", Fold: -1, Run: func(ctx context.Context, _ int) error { return nil }},
		{Label: "bad", Fold: -1, Run: func(ctx context.Context, _ int) error { panic("kaboom") }},
	}
	err := Run(context.Background(), Options{Workers: 2}, tasks...)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Fold: -1, Run: func(ctx context.Context, _ int) error {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return ctx.Err()
		}}
	}
	go func() {
		<-started
		cancel()
	}()
	err := Run(ctx, Options{Workers: 2}, tasks...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Run(ctx, Options{}, Task{Fold: -1, Run: func(ctx context.Context, _ int) error { ran = true; return nil }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("task ran despite pre-cancelled context")
	}
}

func TestRunEmptyAndNilHook(t *testing.T) {
	if err := Run(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	var h Hook
	h.Emit(Event{Kind: TaskStart}) // must not panic
}

func TestRunHookEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	hook := Hook(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	boom := errors.New("boom")
	tasks := []Task{
		{Label: "good", Model: "LR-B", Fold: 2, Run: func(ctx context.Context, _ int) error { return nil }},
		{Label: "bad", Fold: -1, Run: func(ctx context.Context, _ int) error { return boom }},
	}
	_ = Run(context.Background(), Options{Workers: 1, Hook: hook}, tasks...)

	counts := map[EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts[TaskStart] != 2 || counts[TaskDone] != 1 || counts[TaskFailed] != 1 {
		t.Fatalf("event counts = %v", counts)
	}
	for _, e := range events {
		if e.Label == "good" && e.Kind == TaskStart {
			if e.Model != "LR-B" || e.Fold != 2 {
				t.Fatalf("task metadata not propagated: %+v", e)
			}
		}
		if e.Kind == TaskFailed && !errors.Is(e.Err, boom) {
			t.Fatalf("TaskFailed.Err = %v", e.Err)
		}
	}
}

// TestRunPassesTaskIndex: every task receives its position in the Run
// call, whatever the worker count, so tasks that differ only by index
// can share one Run func.
func TestRunPassesTaskIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 40
		var got [n]atomic.Int64
		var calls [n]atomic.Int64
		tasks := make([]Task, n)
		for k := range tasks {
			tasks[k] = Task{Fold: -1, Run: func(ctx context.Context, i int) error {
				got[k].Store(int64(i))
				calls[i].Add(1)
				return nil
			}}
		}
		if err := Run(context.Background(), Options{Workers: workers}, tasks...); err != nil {
			t.Fatal(err)
		}
		for k := range tasks {
			if g, c := got[k].Load(), calls[k].Load(); g != int64(k) || c != 1 {
				t.Fatalf("workers=%d: task %d got index %d, index %d ran %d times", workers, k, g, k, c)
			}
		}
	}
}

func TestMapCoversRangeInChunks(t *testing.T) {
	const n = 103
	out := make([]int, n)
	err := Map(context.Background(), Options{Workers: 4}, n, 10, "square", func(ctx context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestMapZeroLength(t *testing.T) {
	err := Map(context.Background(), Options{}, 0, 8, "noop", func(ctx context.Context, lo, hi int) error {
		t.Fatal("fn called for empty range")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := Map(context.Background(), Options{Workers: 2}, 100, 7, "boom", func(ctx context.Context, lo, hi int) error {
		if lo >= 14 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestMapAllocsIndependentOfChunks: Map shares one Run func across its
// chunks, so splitting a range into four times the chunks allocates
// nothing more.
func TestMapAllocsIndependentOfChunks(t *testing.T) {
	noop := func(ctx context.Context, lo, hi int) error { return nil }
	allocs := func(chunks int) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := Map(context.Background(), Options{Workers: 1}, 1024, 1024/chunks, "noop", noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(8), allocs(32); four != one {
		t.Fatalf("Map over 32 chunks allocates %.1f objects, over 8 chunks %.1f", four, one)
	}
}

func TestHookLabel(t *testing.T) {
	if got := Hook(nil).Label("cart tree %d", 3); got != "" {
		t.Fatalf("nil hook label = %q, want empty", got)
	}
	if got := Hook(func(Event) {}).Label("cart tree %d", 3); got != "cart tree 3" {
		t.Fatalf("hook label = %q, want %q", got, "cart tree 3")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		TaskStart: "start", TaskDone: "done", TaskFailed: "failed", EpochProgress: "epoch",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func TestTee(t *testing.T) {
	var a, b []Event
	hook := Tee(nil, func(e Event) { a = append(a, e) }, nil, func(e Event) { b = append(b, e) })
	hook.Emit(Event{Kind: TaskStart, Label: "x"})
	hook.Emit(Event{Kind: TaskDone, Label: "x"})
	if len(a) != 2 || len(b) != 2 {
		t.Errorf("fan-out delivered %d/%d events, want 2/2", len(a), len(b))
	}
	if a[0].Kind != TaskStart || b[1].Kind != TaskDone {
		t.Errorf("events out of order: %v %v", a, b)
	}
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live hooks should be nil")
	}
	// Tee of one hook must not wrap (the event path is hot).
	calls := 0
	single := func(Event) { calls++ }
	Tee(nil, single).Emit(Event{})
	if calls != 1 {
		t.Errorf("single-hook Tee delivered %d events, want 1", calls)
	}
}

func TestEventQueueWait(t *testing.T) {
	var mu sync.Mutex
	waits := map[EventKind][]time.Duration{}
	hook := func(e Event) {
		mu.Lock()
		waits[e.Kind] = append(waits[e.Kind], e.Wait)
		mu.Unlock()
	}
	// One worker and a slow first task: the second task's queue wait must
	// reflect the time it sat behind the first.
	tasks := []Task{
		{Label: "slow", Fold: -1, Run: func(context.Context, int) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		}},
		{Label: "queued", Fold: -1, Run: func(context.Context, int) error { return nil }},
	}
	if err := Run(context.Background(), Options{Workers: 1, Hook: hook}, tasks...); err != nil {
		t.Fatal(err)
	}
	starts := waits[TaskStart]
	if len(starts) != 2 {
		t.Fatalf("%d TaskStart events, want 2", len(starts))
	}
	if starts[0] > starts[1] {
		// Queue order is task order with one worker.
		starts[0], starts[1] = starts[1], starts[0]
	}
	if starts[1] < 15*time.Millisecond {
		t.Errorf("queued task waited %v, want >= ~20ms behind the slow task", starts[1])
	}
	// Completion events carry the same wait as their start.
	if len(waits[TaskDone]) != 2 {
		t.Fatalf("%d TaskDone events, want 2", len(waits[TaskDone]))
	}
}

func TestWorkerLocalReusedWithinWorker(t *testing.T) {
	// A single-worker pool runs every task on one goroutine, so each task
	// must observe the same worker-local value.
	var mu sync.Mutex
	seen := make(map[*int]int)
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{
			Label: "local",
			Fold:  -1,
			Run: func(ctx context.Context, _ int) error {
				v := WorkerLocal(ctx, "slot", func() any { return new(int) }).(*int)
				mu.Lock()
				seen[v]++
				mu.Unlock()
				return nil
			},
		}
	}
	if err := Run(context.Background(), Options{Workers: 1}, tasks...); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("one worker produced %d distinct locals, want 1", len(seen))
	}
	for _, count := range seen {
		if count != 8 {
			t.Fatalf("local used %d times, want 8", count)
		}
	}
}

func TestWorkerLocalDistinctAcrossWorkers(t *testing.T) {
	// With as many workers as tasks and a barrier keeping all tasks in
	// flight at once, every task runs on its own worker and must get its
	// own local value.
	const n = 4
	var mu sync.Mutex
	seen := make(map[*int]bool)
	barrier := make(chan struct{})
	var arrived sync.WaitGroup
	arrived.Add(n)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Label: "local",
			Fold:  -1,
			Run: func(ctx context.Context, _ int) error {
				v := WorkerLocal(ctx, "slot", func() any { return new(int) }).(*int)
				mu.Lock()
				seen[v] = true
				mu.Unlock()
				arrived.Done()
				<-barrier
				return nil
			},
		}
	}
	go func() {
		arrived.Wait()
		close(barrier)
	}()
	if err := Run(context.Background(), Options{Workers: n}, tasks...); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("%d workers produced %d distinct locals", n, len(seen))
	}
}

func TestWorkerLocalOutsidePool(t *testing.T) {
	// Outside a pool there is no worker store: every call constructs a
	// fresh value (correct, just unshared).
	a := WorkerLocal(context.Background(), "slot", func() any { return new(int) }).(*int)
	b := WorkerLocal(context.Background(), "slot", func() any { return new(int) }).(*int)
	if a == b {
		t.Fatal("calls outside a pool shared a value")
	}
}

func TestWorkerLocalDistinctKeys(t *testing.T) {
	// Distinct keys must map to distinct slots within one worker.
	err := Run(context.Background(), Options{Workers: 1}, Task{
		Label: "keys",
		Fold:  -1,
		Run: func(ctx context.Context, _ int) error {
			a := WorkerLocal(ctx, "a", func() any { return new(int) }).(*int)
			b := WorkerLocal(ctx, "b", func() any { return new(int) }).(*int)
			if a == b {
				return errors.New("keys a and b shared a slot")
			}
			if again := WorkerLocal(ctx, "a", func() any { return new(int) }).(*int); again != a {
				return errors.New("key a was not stable across calls")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}
