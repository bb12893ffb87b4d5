// Package faultinject is the fault-injection layer for the serving
// stack's failure paths: injected latency, forced errors and
// context-cancellation-shaped failures, fired at six explicit hook
// points compiled into internal/serve (admission, batch flush, registry
// reload, artifact load, cache lookup) and internal/gateway (routing).
// The chaos harness in internal/loadtest arms every one of them; no
// training, simulation or library package imports this layer.
//
// The layer is compiled in always but costs nothing by default: the
// process-global injector starts disabled, and a disabled Hit is a single
// branch on the point's plan — no allocations, no locks, no atomics — so
// production hot paths (the zero-allocation kernel and batcher paths) are
// unchanged until a chaos harness calls [Activate].
//
// A plan fires on a fixed cadence: every Every-th call at its point, so
// each configured fault class is guaranteed to fire and a sequential
// call sequence fires on the same call indices every run. (Under
// concurrency which caller draws which index depends on goroutine
// interleaving — the harness therefore asserts class invariants, never
// per-caller fault attribution.)
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Point identifies one compiled-in fault-injection hook point.
type Point uint8

const (
	// ServeAdmit fires in Batcher.Predict before a request is enqueued:
	// latency delays admission (driving queued-deadline expiry), a forced
	// error rejects the request before it takes a queue slot.
	ServeAdmit Point = iota
	// ServeBatchFlush fires in the batch worker just before the coalesced
	// kernel call: latency slows flushes (building queue pressure until
	// the admission queue sheds), a forced error fails every request in
	// the model group being flushed.
	ServeBatchFlush
	// ServeReload fires at the top of Server.Reload: a forced error fails
	// the reload, which must leave the previous catalog serving.
	ServeReload
	// ServeArtifactLoad fires at the top of serve.LoadModelFile: a forced
	// error simulates an unreadable or torn predictor artifact, the
	// failure mode registry reloads must survive without serving it.
	ServeArtifactLoad
	// ServeCacheLookup fires in the prediction-cache path before a
	// request's rows are probed: latency delays the lookup (widening the
	// window for eviction races and reload-during-fill); a fired error,
	// including the request's deadline expiring during the stall, fails
	// the request.
	ServeCacheLookup
	// GatewayRoute fires in the gateway's predict handler before a
	// replica is selected: latency delays routing, a forced error answers
	// the request 503 without consuming any replica capacity.
	GatewayRoute
	numPoints
)

// String names the hook point (used in stats and reports).
func (p Point) String() string {
	switch p {
	case ServeAdmit:
		return "serve.admit"
	case ServeBatchFlush:
		return "serve.batch_flush"
	case ServeReload:
		return "serve.reload"
	case ServeArtifactLoad:
		return "serve.artifact_load"
	case ServeCacheLookup:
		return "serve.cache_lookup"
	case GatewayRoute:
		return "gateway.route"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Plan configures the faults one hook point fires: the Every-th,
// 2·Every-th, … call fires; Every == 0 never fires. A fired call first
// sleeps Latency (if any), then returns Err (which may be nil for a
// latency-only fault). To exercise cancellation handling at a point, set
// Err to context.Canceled or context.DeadlineExceeded — callers see
// exactly what a cancelled context would have produced.
type Plan struct {
	// Every is the firing cadence: every Every-th call fires.
	Every uint64
	// Latency is slept on each fired call before Err is returned.
	Latency time.Duration
	// Err is returned by fired calls; nil makes the fault latency-only.
	Err error
}

// pointState is one hook point's plan plus its call/fire counters.
// Counters are atomics so concurrent hook sites never lock.
type pointState struct {
	plan  Plan
	calls atomic.Uint64
	fires atomic.Uint64
}

// Injector decides, per hook point, whether and how to perturb
// execution. An injector with no plans never fires.
type Injector struct {
	points [numPoints]pointState
}

// New builds an injector firing the given per-point plans.
func New(plans map[Point]Plan) *Injector {
	in := &Injector{}
	for p, plan := range plans {
		if p >= numPoints {
			panic(fmt.Sprintf("faultinject: unknown point %d", p))
		}
		in.points[p].plan = plan
	}
	return in
}

// disabled is the package's permanent no-op singleton.
var disabled = &Injector{}

// active is the process-global injector consulted by the compiled-in
// hook points. An atomic pointer keeps reads lock-free on hot paths.
var active atomic.Pointer[Injector]

func init() { active.Store(disabled) }

// Active returns the process-global injector. Hook sites call this (or
// cache it at worker construction, which is equally valid because chaos
// harnesses activate before building the system under test).
func Active() *Injector { return active.Load() }

// Activate installs in as the process-global injector and returns a
// function restoring the previous one. A nil in disables injection.
// Intended for chaos harnesses and tests; activate before constructing
// the components under test, which snapshot the injector at
// construction.
func Activate(in *Injector) (restore func()) {
	if in == nil {
		in = disabled
	}
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Hit evaluates one hook point. When the point's plan decides this call
// fires, Hit sleeps the plan's latency (abandoning the sleep early, and
// returning the context's error, if ctx is cancelled first) and returns
// the plan's forced error; fired reports whether any fault was applied,
// so call sites can count latency-only faults too. At a point without a
// plan (every point of the disabled injector) this is one branch: no
// allocation, no atomic, no lock.
func (in *Injector) Hit(ctx context.Context, p Point) (fired bool, err error) {
	st := &in.points[p]
	if st.plan.Every == 0 {
		return false, nil
	}
	if st.calls.Add(1)%st.plan.Every != 0 {
		return false, nil
	}
	st.fires.Add(1)
	if d := st.plan.Latency; d > 0 {
		if err := sleep(ctx, d); err != nil {
			return true, err
		}
	}
	return true, st.plan.Err
}

// sleep waits d, abandoning early with the context's error if ctx is
// done first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PointStats reports one hook point's lifetime activity.
type PointStats struct {
	// Calls is how many times the point was evaluated.
	Calls uint64 `json:"calls"`
	// Fires is how many evaluations applied a fault.
	Fires uint64 `json:"fires"`
}

// Stats snapshots per-point call and fire counts for every point with
// a plan, keyed by the point's String name.
func (in *Injector) Stats() map[string]PointStats {
	out := make(map[string]PointStats)
	for i := range in.points {
		st := &in.points[i]
		if st.plan.Every == 0 {
			continue
		}
		out[Point(i).String()] = PointStats{Calls: st.calls.Load(), Fires: st.fires.Load()}
	}
	return out
}
