// Package progress renders execution-engine activity as human-readable
// log lines — the implementation behind the cmd tools' -v flags. It is
// built on the observability layer's Recorder rather than on raw events:
// every line's running totals come from the same metrics stream that
// feeds RunReports, so the console view and the machine-readable record
// can never disagree.
package progress

import (
	"fmt"
	"io"
	"sync"

	"perfpred/internal/engine"
	"perfpred/internal/obs"
)

// Reporter renders progress lines from a metrics stream. Create one with
// New, passing the Recorder a RunReport builder also reads, and attach
// Reporter.Hook() wherever an engine.Hook is accepted.
type Reporter struct {
	mu  sync.Mutex
	w   io.Writer
	rec *obs.Recorder
}

// New returns a Reporter writing one line per finished or failed task to
// w. rec is the recorder whose metrics the lines quote; it also counts
// neural epoch events, which are never printed. The reporter serializes
// writes and is safe for concurrent use.
func New(w io.Writer, rec *obs.Recorder) *Reporter {
	return &Reporter{w: w, rec: rec}
}

// Hook returns the engine hook driving this reporter. Events feed the
// recorder first and the renderer second, so each line's aggregate
// counters already include the event it reports.
func (p *Reporter) Hook() engine.Hook {
	return engine.Tee(p.rec.Hook(), p.render)
}

func (p *Reporter) render(e engine.Event) {
	reg := p.rec.Registry()
	switch e.Kind {
	case engine.TaskDone:
		done := reg.Counter(obs.MetricTasksDone).Value()
		started := reg.Counter(obs.MetricTasksStarted).Value()
		p.mu.Lock()
		fmt.Fprintf(p.w, "done %-40s %8.2fs  [%d/%d tasks]\n", e.Label, e.Elapsed.Seconds(), done, started)
		p.mu.Unlock()
	case engine.TaskFailed:
		failed := reg.Counter(obs.MetricTasksFailed).Value()
		p.mu.Lock()
		fmt.Fprintf(p.w, "FAIL %-40s %8.2fs  [%d failed]: %v\n", e.Label, e.Elapsed.Seconds(), failed, e.Err)
		p.mu.Unlock()
	}
}
