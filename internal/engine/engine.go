// Package engine is the repository's single concurrency idiom: a bounded,
// context-aware worker pool with first-error cancellation, panic recovery,
// and structured instrumentation hooks.
//
// Every fan-out in the code base — per-kind model training, the five
// cross-validation folds of an error estimate, whole-space prediction,
// design-space simulation sweeps, and neural topology searches — is
// expressed as a flat slice of [Task] values executed by [Run] (or the
// chunked convenience wrapper [Map]). Callers therefore get uniform
// semantics everywhere:
//
//   - Bounded concurrency: at most Options.Workers tasks run at once.
//   - Cancellation: the first task error (or the caller's context being
//     cancelled) stops the scheduling of further tasks promptly; queued
//     tasks are abandoned, running tasks observe ctx.Done().
//   - Panic safety: a panicking task is converted into a *PanicError
//     carrying the recovered value and stack, and cancels the run like any
//     other error.
//   - Determinism: tasks must derive all randomness from seeds fixed at
//     submission — carried in their closures or derived from the task's
//     index in its Run call (see perfpred's stat.DeriveSeed contract) —
//     never from scheduling order, so results are identical for any
//     worker count.
//   - Observability: an optional [Hook] receives a structured [Event] at
//     every task start, finish and failure (and, from cooperating task
//     bodies, epoch-granularity progress), enabling -v style progress
//     reporters and future metrics exporters without touching task code.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// EventKind classifies a pool event.
type EventKind int

const (
	// TaskStart fires when a task begins executing (not when queued).
	TaskStart EventKind = iota
	// TaskDone fires when a task returns nil.
	TaskDone
	// TaskFailed fires when a task returns an error or panics.
	TaskFailed
	// EpochProgress is emitted by cooperating long-running task bodies
	// (e.g. neural-network training) to report inner-loop progress.
	EpochProgress
	// KernelTime is emitted by cooperating task bodies after a batched
	// compute kernel (neural SGD epochs, batch prediction) finishes: Label
	// names the kernel, Elapsed is the time spent inside it and Samples the
	// number of per-sample kernel invocations it covered.
	KernelTime
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case TaskStart:
		return "start"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	case EpochProgress:
		return "epoch"
	case KernelTime:
		return "kernel"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one structured observation from the pool or a task body.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Label identifies the task (e.g. "estimate NN-E fold 3").
	Label string
	// Model is the model kind's label when the task is model-scoped
	// (empty otherwise).
	Model string
	// Fold is the cross-validation fold index, or -1 when the task is not
	// fold-scoped.
	Fold int
	// Epoch and Epochs report inner-loop progress for EpochProgress events.
	Epoch, Epochs int
	// Samples is the number of per-sample kernel invocations covered by a
	// KernelTime event.
	Samples int64
	// Err is the failure for TaskFailed events.
	Err error
	// Elapsed is the task's wall-clock duration for TaskDone/TaskFailed.
	Elapsed time.Duration
	// Wait is how long the task sat queued behind the worker budget before
	// starting — the time from Run submission to TaskStart. Populated on
	// TaskStart, TaskDone and TaskFailed events.
	Wait time.Duration
}

// Hook observes pool events. Hooks may be called concurrently from many
// workers and must be safe for concurrent use. A nil Hook is valid and
// observes nothing.
type Hook func(Event)

// Emit delivers the event if the hook is non-nil. Safe on nil hooks.
func (h Hook) Emit(e Event) {
	if h != nil {
		h(e)
	}
}

// Label formats a task or kernel label for h's events. Only hook events
// read labels, so without a hook Label returns "" and builds nothing.
// Arguments are boxed before the call, which allocates for integers of
// 256 and up, so Map, whose chunk bounds reach those, checks its hook
// before it formats instead.
func (h Hook) Label(format string, a ...any) string {
	if h == nil {
		return ""
	}
	return fmt.Sprintf(format, a...)
}

// Tee fans one event stream out to several hooks, in argument order. Nil
// hooks are skipped; Tee of zero or one non-nil hook avoids the extra
// indirection entirely, so it is free to call unconditionally.
func Tee(hooks ...Hook) Hook {
	live := make([]Hook, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, h := range live {
			h(e)
		}
	}
}

// Task is one unit of work for the pool.
type Task struct {
	// Label names the task in its hook events. Only a hook reads it, so
	// callers build it with the pool's Hook.Label, which leaves it empty
	// when no hook observes the pool.
	Label string
	// Model optionally carries the model kind's label.
	Model string
	// Fold is the cross-validation fold index, or -1 when not applicable.
	Fold int
	// Run does the work; i is the task's position in its Run call, so
	// tasks that differ only by index can share one func. It must honor
	// ctx cancellation in long loops and must confine all writes to
	// memory owned by the task (index-addressed slots are the usual
	// pattern).
	Run func(ctx context.Context, i int) error
}

// PanicError wraps a panic recovered from a task.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the panic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: task panicked: %v", p.Value)
}

// Options configures one Run or Map call.
type Options struct {
	// Workers bounds concurrent tasks (0 = GOMAXPROCS).
	Workers int
	// Hook, if non-nil, observes task lifecycle events.
	Hook Hook
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the tasks on a bounded worker pool and waits for completion.
//
// The first task failure cancels the run's context: queued tasks are
// abandoned and running tasks can observe the cancellation. Panics are
// recovered into *PanicError values and cancel the run like errors. When
// the parent context is cancelled, Run returns the parent's error.
// Otherwise Run returns the first genuine task error in submission order
// (deterministic when only one task fails, which covers every sequential
// baseline this refactor replaced), falling back to the chronologically
// first failure recorded as the cancellation cause.
func Run(ctx context.Context, opts Options, tasks ...Task) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(tasks) == 0 {
		return nil
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	enqueued := time.Now()

	workers := opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	queue := make(chan int, len(tasks))
	for i := range tasks {
		queue <- i
	}
	close(queue)

	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker goroutine owns a worker-local store for the
			// lifetime of the run, so scratch buffers fetched through
			// WorkerLocal are reused across all tasks this worker executes
			// and released together when the pool drains.
			wctx := withWorkerState(runCtx)
			for i := range queue {
				if err := context.Cause(runCtx); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = execute(wctx, opts.Hook, &tasks[i], i, time.Since(enqueued))
				if errs[i] != nil {
					cancel(errs[i])
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execute runs task i with panic recovery and lifecycle events.
func execute(ctx context.Context, hook Hook, t *Task, i int, wait time.Duration) (err error) {
	start := time.Now()
	hook.Emit(Event{Kind: TaskStart, Label: t.Label, Model: t.Model, Fold: t.Fold, Wait: wait})
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		e := Event{Kind: TaskDone, Label: t.Label, Model: t.Model, Fold: t.Fold, Elapsed: time.Since(start), Wait: wait}
		if err != nil {
			e.Kind = TaskFailed
			e.Err = err
		}
		hook.Emit(e)
	}()
	return t.Run(ctx, i)
}

// workerStateKey is the context key carrying a worker's local store.
type workerStateKey struct{}

// workerState is the per-worker-goroutine cache behind WorkerLocal. A
// worker executes its tasks sequentially, so the map needs no locking.
type workerState struct {
	vals map[any]any
}

// withWorkerState attaches a fresh worker-local store to ctx.
func withWorkerState(ctx context.Context) context.Context {
	return context.WithValue(ctx, workerStateKey{}, &workerState{vals: make(map[any]any)})
}

// NewWorkerContext returns a copy of ctx carrying a fresh worker-local
// store, for long-lived single-goroutine workers that live outside any
// Run pool (e.g. a serving loop's batch executors). Values fetched
// through WorkerLocal on the returned context are cached for the
// context's lifetime, so a goroutine that creates one context at startup
// gets the same scratch-reuse guarantees as a pool worker. The store is
// not synchronized: the returned context must stay confined to one
// goroutine.
func NewWorkerContext(ctx context.Context) context.Context {
	return withWorkerState(ctx)
}

// WorkerLocal returns the value stored under key in the current engine
// worker's local store, creating it with create on first use. The pool
// owns the store's lifetime: one store per worker goroutine per Run, so a
// value is reused across every task the worker executes and becomes
// garbage when the pool drains. Tasks on one worker run sequentially, so
// the returned value needs no synchronization as long as it does not
// escape the task.
//
// When ctx does not come from an engine worker (direct calls outside any
// pool), WorkerLocal degrades to calling create every time — callers get
// correctness without the reuse. Typical use is a per-worker scratch
// buffer:
//
//	buf := engine.WorkerLocal(ctx, bufKey{}, func() any { return new(Scratch) }).(*Scratch)
func WorkerLocal(ctx context.Context, key any, create func() any) any {
	ws, ok := ctx.Value(workerStateKey{}).(*workerState)
	if !ok {
		return create()
	}
	v, ok := ws.vals[key]
	if !ok {
		v = create()
		ws.vals[key] = v
	}
	return v
}

// Map partitions the index range [0, n) into chunks of at most chunk
// indices and runs fn(ctx, lo, hi) for each chunk on the pool. Every
// chunk's task shares one Run func, which derives its bounds from the
// task index. When opts.Hook is set, chunks carry labels "label[lo:hi)";
// without one they carry none. Writes must be index-addressed so the
// result is independent of scheduling.
func Map(ctx context.Context, opts Options, n, chunk int, label string, fn func(ctx context.Context, lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if chunk <= 0 {
		chunk = 1
	}
	run := func(ctx context.Context, i int) error {
		lo := i * chunk
		return fn(ctx, lo, min(lo+chunk, n))
	}
	tasks := make([]Task, (n+chunk-1)/chunk)
	for i := range tasks {
		tasks[i] = Task{Fold: -1, Run: run}
		// Bounds of 256 and up are boxed before any call, so the hook is
		// checked here, not inside Hook.Label.
		if opts.Hook != nil {
			lo := i * chunk
			tasks[i].Label = fmt.Sprintf("%s[%d:%d)", label, lo, min(lo+chunk, n))
		}
	}
	return Run(ctx, opts, tasks...)
}
