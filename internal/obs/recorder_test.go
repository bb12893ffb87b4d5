package obs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfpred/internal/engine"
)

func TestPhaseOfModelOf(t *testing.T) {
	for _, tc := range []struct{ label, phase string }{
		{"estimate NN-E fold 3", "estimate"},
		{"train LR-B", "train"},
		{"predict NN-Q[0:256)", "predict"},
		{"sweep[0:16)", "sweep"},
		{"solo", "solo"},
		{"", "other"},
	} {
		if got := phaseOf(tc.label); got != tc.phase {
			t.Errorf("phaseOf(%q) = %q, want %q", tc.label, got, tc.phase)
		}
	}
	for _, tc := range []struct {
		e     engine.Event
		model string
	}{
		{engine.Event{Model: "NN-E", Label: "estimate NN-E fold 3"}, "NN-E"},
		{engine.Event{Label: "NN-Q"}, "NN-Q"},
		{engine.Event{Label: "NN-E restart 2 prune 1"}, "NN-E"},
		{engine.Event{Label: "sweep[0:16)"}, ""},
		{engine.Event{Label: "plain label"}, ""},
	} {
		if got := modelOf(tc.e); got != tc.model {
			t.Errorf("modelOf(%+v) = %q, want %q", tc.e, got, tc.model)
		}
	}
}

func TestRecorderAggregation(t *testing.T) {
	rec := NewRecorder()
	hook := rec.Hook()
	// Synthesize a small deterministic event stream by hand.
	hook(engine.Event{Kind: engine.TaskStart, Label: "train NN-Q", Model: "NN-Q", Fold: -1, Wait: time.Millisecond})
	hook(engine.Event{Kind: engine.TaskDone, Label: "train NN-Q", Model: "NN-Q", Fold: -1, Elapsed: 2 * time.Second})
	hook(engine.Event{Kind: engine.TaskStart, Label: "estimate NN-Q fold 0", Model: "NN-Q", Fold: 0})
	hook(engine.Event{Kind: engine.TaskFailed, Label: "estimate NN-Q fold 0", Model: "NN-Q", Fold: 0, Elapsed: time.Second, Err: errors.New("boom")})
	hook(engine.Event{Kind: engine.EpochProgress, Label: "NN-Q", Epoch: 8, Epochs: 64})

	exec := rec.Execution()
	if exec.TasksStarted != 2 || exec.TasksDone != 1 || exec.TasksFailed != 1 || exec.EpochEvents != 1 {
		t.Errorf("counts = %+v", exec)
	}
	m, ok := exec.Models["NN-Q"]
	if !ok {
		t.Fatal("no NN-Q aggregate")
	}
	if m.Tasks != 2 || m.Failures != 1 || m.EpochEvents != 1 {
		t.Errorf("NN-Q = %+v", m)
	}
	if m.Seconds != 3 {
		t.Errorf("NN-Q seconds = %v, want 3", m.Seconds)
	}
	if got := m.FoldSeconds[0]; got != 1 {
		t.Errorf("fold 0 seconds = %v, want 1", got)
	}
	if exec.Phases["train"].Tasks != 1 || exec.Phases["estimate"].Tasks != 1 {
		t.Errorf("phases = %+v", exec.Phases)
	}
	if exec.QueueWait.Count != 2 || exec.QueueWait.Max < 0.001 {
		t.Errorf("queue wait = %+v", exec.QueueWait)
	}
}

func TestNilRecorderInert(t *testing.T) {
	var rec *Recorder
	if rec.Hook() != nil {
		t.Error("nil recorder Hook should be nil")
	}
	if rec.Registry() != nil {
		t.Error("nil recorder Registry should be nil")
	}
	if got := rec.Execution(); !reflect.DeepEqual(got, ExecutionStats{}) {
		t.Errorf("nil recorder Execution = %+v", got)
	}
}

// syntheticRun schedules a deterministic task graph shaped like a
// workflow run — 4 "models" × (5 folds + 1 train) plus a chunked predict
// phase and throttled epoch events — on a pool of the given width, with
// the recorder attached.
func syntheticRun(t *testing.T, workers int) *Recorder {
	t.Helper()
	rec := NewRecorder()
	models := []string{"LR-E", "LR-B", "NN-Q", "NN-S"}
	var tasks []engine.Task
	for _, m := range models {
		m := m
		for fold := 0; fold < 5; fold++ {
			tasks = append(tasks, engine.Task{
				Label: fmt.Sprintf("estimate %s fold %d", m, fold),
				Model: m,
				Fold:  fold,
				Run:   func(context.Context, int) error { return nil },
			})
		}
		tasks = append(tasks, engine.Task{
			Label: "train " + m,
			Model: m,
			Fold:  -1,
			Run: func(ctx context.Context, _ int) error {
				// Cooperating task body: emit deterministic epoch events.
				for epoch := 0; epoch < 3; epoch++ {
					rec.Hook().Emit(engine.Event{Kind: engine.EpochProgress, Label: m, Fold: -1, Epoch: epoch, Epochs: 3})
				}
				return nil
			},
		})
	}
	opts := engine.Options{Workers: workers, Hook: rec.Hook()}
	if err := engine.Run(context.Background(), opts, tasks...); err != nil {
		t.Fatal(err)
	}
	if err := engine.Map(context.Background(), opts, 1000, 256, "predict NN-Q", func(ctx context.Context, lo, hi int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecorderCountsWorkerInvariant is the concurrency regression test:
// the deterministic projection of the aggregates (task counts per model,
// folds, epoch events, phases) must be identical whether the engine ran
// 1-wide or 16-wide. Run under -race (make race) this also proves the
// Recorder's hook path is data-race free at full contention.
func TestRecorderCountsWorkerInvariant(t *testing.T) {
	serial := syntheticRun(t, 1).Execution()
	wide := syntheticRun(t, 16).Execution()
	if !reflect.DeepEqual(serial.Counts(), wide.Counts()) {
		t.Errorf("aggregate counts differ across worker counts:\n 1 worker: %v\n16 workers: %v",
			serial.Counts(), wide.Counts())
	}
	// Spot-check the absolute numbers: 4 models × 6 tasks + 4 predict
	// chunks = 28 tasks, all done; 4 models × 3 epoch events.
	if serial.TasksStarted != 28 || serial.TasksDone != 28 || serial.TasksFailed != 0 {
		t.Errorf("task counts = %d/%d/%d, want 28/28/0", serial.TasksStarted, serial.TasksDone, serial.TasksFailed)
	}
	if serial.EpochEvents != 12 {
		t.Errorf("epoch events = %d, want 12", serial.EpochEvents)
	}
	for _, m := range []string{"LR-E", "LR-B", "NN-Q", "NN-S"} {
		if got := serial.Models[m].Tasks; got != 6 {
			t.Errorf("%s tasks = %d, want 6", m, got)
		}
		if got := len(serial.Models[m].FoldSeconds); got != 5 {
			t.Errorf("%s folds = %d, want 5", m, got)
		}
	}
	if got := serial.Phases["predict"].Tasks; got != 4 {
		t.Errorf("predict tasks = %d, want 4", got)
	}
}

func TestRecorderKernelStats(t *testing.T) {
	rec := NewRecorder()
	hook := rec.Hook()
	hook(engine.Event{Kind: engine.KernelTime, Label: "sgd NN-Q", Fold: -1, Samples: 6400, Elapsed: 2 * time.Second})
	hook(engine.Event{Kind: engine.KernelTime, Label: "sgd NN-Q", Fold: -1, Samples: 1600, Elapsed: time.Second})
	hook(engine.Event{Kind: engine.KernelTime, Label: "predict NN-Q", Model: "NN-Q", Fold: -1, Samples: 256, Elapsed: time.Second / 2})

	exec := rec.Execution()
	sgd, ok := exec.Kernels["sgd"]
	if !ok {
		t.Fatalf("no sgd kernel aggregate: %+v", exec.Kernels)
	}
	if sgd.Events != 2 || sgd.Samples != 8000 || sgd.Seconds != 3 {
		t.Errorf("sgd = %+v", sgd)
	}
	pred, ok := exec.Kernels["predict"]
	if !ok {
		t.Fatal("no predict kernel aggregate")
	}
	if pred.Events != 1 || pred.Samples != 256 || pred.Seconds != 0.5 {
		t.Errorf("predict = %+v", pred)
	}

	counts := exec.Counts()
	if counts["kernel.sgd.events"] != 2 || counts["kernel.sgd.samples"] != 8000 {
		t.Errorf("counts = %+v", counts)
	}
	if counts["kernel.predict.samples"] != 256 {
		t.Errorf("counts = %+v", counts)
	}

	if got := rec.Registry().Counter(MetricKernelSamples).Value(); got != 8256 {
		t.Errorf("kernel samples counter = %d, want 8256", got)
	}
}
