package progress

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"perfpred/internal/engine"
	"perfpred/internal/obs"
)

func TestReporterRendersFromRecorder(t *testing.T) {
	var buf bytes.Buffer
	p := New(&buf, true, nil)
	hook := p.Hook()

	hook.Emit(engine.Event{Kind: engine.TaskStart, Label: "train NN-Q"})
	hook.Emit(engine.Event{Kind: engine.EpochProgress, Label: "train NN-Q", Model: "NN-Q", Epoch: 4, Epochs: 16})
	hook.Emit(engine.Event{Kind: engine.TaskDone, Label: "train NN-Q", Model: "NN-Q"})
	hook.Emit(engine.Event{Kind: engine.TaskStart, Label: "train NN-S"})
	hook.Emit(engine.Event{Kind: engine.TaskFailed, Label: "train NN-S", Model: "NN-S", Err: errors.New("diverged")})

	out := buf.String()
	// The rendered totals come from the reporter's own recorder, and each
	// line already includes the event it reports (one task started and
	// done at the moment the done line prints).
	if !strings.Contains(out, "[1/1 tasks]") {
		t.Errorf("done line missing recorder-backed totals:\n%s", out)
	}
	if !strings.Contains(out, "epoch 4/16") {
		t.Errorf("epoch line missing:\n%s", out)
	}
	if !strings.Contains(out, "[1 failed]") || !strings.Contains(out, "diverged") {
		t.Errorf("failure line missing count or error:\n%s", out)
	}
	exec := p.rec.Execution()
	if exec.TasksStarted != 2 || exec.TasksDone != 1 || exec.TasksFailed != 1 || exec.EpochEvents != 1 {
		t.Errorf("recorder aggregates = %+v", exec)
	}
}

func TestReporterEpochsOff(t *testing.T) {
	var buf bytes.Buffer
	hook := New(&buf, false, nil).Hook()
	hook.Emit(engine.Event{Kind: engine.EpochProgress, Label: "train NN-E", Epoch: 1, Epochs: 8})
	if buf.Len() != 0 {
		t.Errorf("epoch line rendered with epochs disabled: %q", buf.String())
	}
}

// TestReporterSharesRecorder pins the -v + -report contract: the hook the
// CLIs install narrates to the console and feeds the caller's recorder,
// so the report built afterwards describes exactly the run narrated.
func TestReporterSharesRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	var buf bytes.Buffer
	p := New(&buf, false, rec)
	if p.rec != rec {
		t.Fatal("reporter did not adopt the caller's recorder")
	}
	err := engine.Run(context.Background(), engine.Options{Workers: 2, Hook: p.Hook()},
		engine.Task{Label: "estimate LR-B", Model: "LR-B", Fold: 0, Run: func(context.Context) error { return nil }},
		engine.Task{Label: "estimate LR-B", Model: "LR-B", Fold: 1, Run: func(context.Context) error { return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	exec := rec.Execution()
	if exec.TasksDone != 2 {
		t.Errorf("caller recorder saw %d done tasks, want 2", exec.TasksDone)
	}
	if got := exec.Models["LR-B"].Tasks; got != 2 {
		t.Errorf("model aggregate = %d, want 2", got)
	}
	if n := strings.Count(buf.String(), "done "); n != 2 {
		t.Errorf("%d rendered lines, want 2:\n%s", n, buf.String())
	}
}
