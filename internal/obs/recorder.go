package obs

import (
	"strings"
	"sync"
	"time"

	"perfpred/internal/engine"
)

// Canonical metric names the Recorder maintains in its registry. They are
// exported so dashboards and tests never hard-code strings.
const (
	MetricTasksStarted     = "engine.tasks.started"
	MetricTasksDone        = "engine.tasks.done"
	MetricTasksFailed      = "engine.tasks.failed"
	MetricEpochEvents      = "engine.epoch_events"
	MetricQueueWaitSeconds = "engine.queue_wait_seconds"
	MetricTaskSeconds      = "engine.task_seconds"
	// The kernel.* metrics aggregate KernelTime reports from every model
	// family's numeric kernels (neural SGD epochs, tree growth, batch
	// prediction sweeps) — the per-kernel breakdown in ExecutionStats keys
	// on the event label's first token, so new families show up without
	// recorder changes.
	MetricKernelEvents  = "kernel.events"
	MetricKernelSamples = "kernel.samples"
	MetricKernelSeconds = "kernel.seconds"
)

// ModelStats aggregates every engine task attributed to one model kind.
type ModelStats struct {
	// Tasks counts completed tasks (done + failed).
	Tasks int64 `json:"tasks"`
	// Failures counts failed tasks.
	Failures int64 `json:"failures,omitempty"`
	// Seconds is total task wall-clock time (sum over tasks, not elapsed
	// span — parallel tasks overlap).
	Seconds float64 `json:"seconds"`
	// EpochEvents counts throttled neural epoch-progress events observed.
	EpochEvents int64 `json:"epoch_events,omitempty"`
	// FoldSeconds maps cross-validation fold index to that fold's total
	// training+evaluation time.
	FoldSeconds map[int]float64 `json:"fold_seconds,omitempty"`
}

// KernelStats aggregates the numeric kernels' self-reported timings (SGD
// training epochs, batch prediction sweeps), keyed by kernel name — the
// first token of the KernelTime event label. Samples counts the rows
// streamed through the kernel, so Samples/Seconds is its throughput.
type KernelStats struct {
	// Events counts KernelTime reports (one per SGD run or batch sweep).
	Events int64 `json:"events"`
	// Samples counts rows processed across those reports.
	Samples int64 `json:"samples"`
	// Seconds is total in-kernel wall-clock (parallel kernels overlap).
	Seconds float64 `json:"seconds"`
}

// PhaseStats aggregates tasks by pipeline phase (the first token of the
// task label: "sweep", "estimate", "train", "predict", ...).
type PhaseStats struct {
	Tasks   int64   `json:"tasks"`
	Seconds float64 `json:"seconds"`
}

// ExecutionStats is the Recorder's structured aggregate of one run's
// engine activity — the execution section of a RunReport.
type ExecutionStats struct {
	TasksStarted int64 `json:"tasks_started"`
	TasksDone    int64 `json:"tasks_done"`
	TasksFailed  int64 `json:"tasks_failed,omitempty"`
	EpochEvents  int64 `json:"epoch_events,omitempty"`
	// QueueWait summarizes how long tasks sat queued behind the worker
	// budget before starting.
	QueueWait HistogramStats `json:"queue_wait"`
	// TaskTime summarizes individual task durations.
	TaskTime HistogramStats `json:"task_time"`
	// Phases breaks task counts and time down by pipeline phase.
	Phases map[string]PhaseStats `json:"phases,omitempty"`
	// Models breaks task counts and time down by model kind.
	Models map[string]ModelStats `json:"models,omitempty"`
	// Kernels breaks self-reported kernel time down by kernel name.
	Kernels map[string]KernelStats `json:"kernels,omitempty"`
}

// Counts projects the deterministic part of the stats: everything except
// durations. Two runs of the same seeded workload must produce equal
// Counts regardless of worker count; the concurrency regression test
// pins that.
func (s ExecutionStats) Counts() map[string]int64 {
	out := map[string]int64{
		"tasks_started": s.TasksStarted,
		"tasks_done":    s.TasksDone,
		"tasks_failed":  s.TasksFailed,
		"epoch_events":  s.EpochEvents,
	}
	for name, p := range s.Phases {
		out["phase."+name] = p.Tasks
	}
	for name, m := range s.Models {
		out["model."+name+".tasks"] = m.Tasks
		out["model."+name+".failures"] = m.Failures
		out["model."+name+".epoch_events"] = m.EpochEvents
		out["model."+name+".folds"] = int64(len(m.FoldSeconds))
	}
	for name, k := range s.Kernels {
		out["kernel."+name+".events"] = k.Events
		out["kernel."+name+".samples"] = k.Samples
	}
	return out
}

// Recorder subscribes to the execution engine's event stream and
// aggregates it into metrics and per-model statistics. Attach it by
// passing Recorder.Hook() as (or teed into) a TrainConfig/Options hook.
// All methods are safe for concurrent use; a nil *Recorder is inert
// (Hook returns nil, snapshots are empty).
type Recorder struct {
	reg     *Registry
	started time.Time

	mu      sync.Mutex
	models  map[string]*ModelStats
	phases  map[string]*PhaseStats
	kernels map[string]*KernelStats
}

// NewRecorder returns a Recorder with a fresh registry, stamped with the
// current time (the run's wall-clock origin).
func NewRecorder() *Recorder {
	return &Recorder{
		reg:     NewRegistry(),
		started: time.Now(),
		models:  make(map[string]*ModelStats),
		phases:  make(map[string]*PhaseStats),
		kernels: make(map[string]*KernelStats),
	}
}

// Registry exposes the recorder's metrics registry, e.g. to publish it on
// a metrics server.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Elapsed is the wall-clock time since the recorder was created.
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.started)
}

// phaseOf extracts the pipeline phase from a task label: the prefix up to
// the first space or '[' ("estimate NN-E fold 3" → "estimate"; both
// "sweep trace[0:1)", a full-trace pass, and "sweep[3:4)", the fourth L2
// group, → "sweep").
func phaseOf(label string) string {
	if i := strings.IndexAny(label, " ["); i > 0 {
		return label[:i]
	}
	if label == "" {
		return "other"
	}
	return label
}

// modelOf attributes an event to a model kind: the event's Model field
// when set, otherwise the first token of the label (neural epoch events
// carry labels like "NN-E restart 2 prune 1").
func modelOf(e engine.Event) string {
	if e.Model != "" {
		return e.Model
	}
	label := e.Label
	if i := strings.IndexByte(label, ' '); i > 0 {
		label = label[:i]
	}
	if strings.Contains(label, "-") {
		return label
	}
	return ""
}

// Hook returns the engine hook feeding this recorder. The hook is safe
// for concurrent use from many workers.
func (r *Recorder) Hook() engine.Hook {
	if r == nil {
		return nil
	}
	return r.observe
}

func (r *Recorder) observe(e engine.Event) {
	switch e.Kind {
	case engine.TaskStart:
		r.reg.Counter(MetricTasksStarted).Inc()
		r.reg.Histogram(MetricQueueWaitSeconds).Observe(e.Wait.Seconds())
	case engine.TaskDone, engine.TaskFailed:
		if e.Kind == engine.TaskDone {
			r.reg.Counter(MetricTasksDone).Inc()
		} else {
			r.reg.Counter(MetricTasksFailed).Inc()
		}
		sec := e.Elapsed.Seconds()
		r.reg.Histogram(MetricTaskSeconds).Observe(sec)

		phase := phaseOf(e.Label)
		model := modelOf(e)
		r.mu.Lock()
		p, ok := r.phases[phase]
		if !ok {
			p = &PhaseStats{}
			r.phases[phase] = p
		}
		p.Tasks++
		p.Seconds += sec
		if model != "" {
			m := r.model(model)
			m.Tasks++
			m.Seconds += sec
			if e.Kind == engine.TaskFailed {
				m.Failures++
			}
			if e.Fold >= 0 {
				if m.FoldSeconds == nil {
					m.FoldSeconds = make(map[int]float64)
				}
				m.FoldSeconds[e.Fold] += sec
			}
		}
		r.mu.Unlock()
	case engine.EpochProgress:
		r.reg.Counter(MetricEpochEvents).Inc()
		if model := modelOf(e); model != "" {
			r.mu.Lock()
			r.model(model).EpochEvents++
			r.mu.Unlock()
		}
	case engine.KernelTime:
		r.reg.Counter(MetricKernelEvents).Inc()
		r.reg.Counter(MetricKernelSamples).Add(e.Samples)
		sec := e.Elapsed.Seconds()
		r.reg.Histogram(MetricKernelSeconds).Observe(sec)
		name := phaseOf(e.Label)
		r.mu.Lock()
		k, ok := r.kernels[name]
		if !ok {
			k = &KernelStats{}
			r.kernels[name] = k
		}
		k.Events++
		k.Samples += e.Samples
		k.Seconds += sec
		r.mu.Unlock()
	}
}

// model returns the named model aggregate; r.mu must be held.
func (r *Recorder) model(name string) *ModelStats {
	m, ok := r.models[name]
	if !ok {
		m = &ModelStats{}
		r.models[name] = m
	}
	return m
}

// Execution snapshots the recorder's structured aggregates.
func (r *Recorder) Execution() ExecutionStats {
	if r == nil {
		return ExecutionStats{}
	}
	stats := ExecutionStats{
		TasksStarted: r.reg.Counter(MetricTasksStarted).Value(),
		TasksDone:    r.reg.Counter(MetricTasksDone).Value(),
		TasksFailed:  r.reg.Counter(MetricTasksFailed).Value(),
		EpochEvents:  r.reg.Counter(MetricEpochEvents).Value(),
		QueueWait:    r.reg.Histogram(MetricQueueWaitSeconds).Snapshot(),
		TaskTime:     r.reg.Histogram(MetricTaskSeconds).Snapshot(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.phases) > 0 {
		stats.Phases = make(map[string]PhaseStats, len(r.phases))
		for k, v := range r.phases {
			stats.Phases[k] = *v
		}
	}
	if len(r.kernels) > 0 {
		stats.Kernels = make(map[string]KernelStats, len(r.kernels))
		for k, v := range r.kernels {
			stats.Kernels[k] = *v
		}
	}
	if len(r.models) > 0 {
		stats.Models = make(map[string]ModelStats, len(r.models))
		for k, v := range r.models {
			m := *v
			if v.FoldSeconds != nil {
				m.FoldSeconds = make(map[int]float64, len(v.FoldSeconds))
				for fold, sec := range v.FoldSeconds {
					m.FoldSeconds[fold] = sec
				}
			}
			stats.Models[k] = m
		}
	}
	return stats
}
