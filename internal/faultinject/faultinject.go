// Package faultinject is a deterministic, seed-driven fault-injection
// layer for the serving stack's failure paths: injected latency, forced
// errors, context-cancellation-shaped failures and clock skew, fired at
// explicit hook points compiled into internal/engine (task dispatch and
// completion), internal/core (artifact load) and internal/serve
// (admission, batch flush, registry reload).
//
// The layer is compiled in always but costs nothing by default: the
// process-global injector starts as [Disabled], whose Hit is a single
// branch on a per-point enabled flag — no allocations, no locks, no
// atomics — so production hot paths (the zero-allocation kernel and
// batcher paths) are unchanged until a chaos harness calls [Activate].
//
// Determinism: every fire decision at a point is a pure function of the
// injector seed, the point, and that point's call index, computed with a
// splitmix64-style mixer. Re-running the same call sequence against the
// same seed reproduces the same decisions; a chaos failure is reproduced
// by re-running the harness with the seed it prints. (Under concurrency
// the per-point decision *sequence* is fixed, while which caller draws
// which index depends on goroutine interleaving — the harness therefore
// asserts class invariants, never per-caller fault attribution.)
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
	// EngineTaskStart fires when an engine worker dequeues a task, before
	// the task body runs: a forced error fails the task as if its body had
	// returned it, which cancels the surrounding Run like any task error.
	EngineTaskStart Point = iota
	// EngineTaskDone fires after a task body returns nil: a forced error
	// converts the completion into a failure (a late, post-work fault).
	EngineTaskDone
	// CoreArtifactLoad fires at the top of core.LoadPredictorFile: a
	// forced error simulates an unreadable or torn predictor artifact, the
	// failure mode registry reloads must survive without serving it.
	CoreArtifactLoad
	// ServeAdmit fires in Batcher.Predict before a request is enqueued:
	// latency delays admission (driving queued-deadline expiry), a forced
	// error rejects the request before it takes a queue slot.
	ServeAdmit
	// ServeBatchFlush fires in the batch worker just before the coalesced
	// kernel call: latency slows flushes (building queue pressure until
	// the admission queue sheds), a forced error fails the combined batch
	// and exercises the per-request rescore path.
	ServeBatchFlush
	// ServeReload fires at the top of Server.Reload: a forced error fails
	// the reload, which must leave the previous catalog serving.
	ServeReload
	// ServeCacheLookup fires in the prediction-cache path before a
	// request's rows are probed: latency delays the lookup (widening the
	// window for eviction races and reload-during-fill), a forced error
	// makes the request bypass the cache entirely — the fail-open path,
	// which must stay bit-identical to cached serving.
	ServeCacheLookup
	// GatewayRoute fires in the gateway's predict handler before a
	// replica is selected: latency delays routing, a forced error answers
	// the request 503 without consuming any replica capacity.
	GatewayRoute
	// GatewayHealthProbe fires at the top of each active health probe: a
	// forced error fails the probe as if the replica were unreachable,
	// driving ejection without the replica ever misbehaving.
	GatewayHealthProbe
	// ActiveAcquireRound fires at the top of each active-learning
	// acquisition round, before the committee is retrained: latency
	// delays the round, a forced error fails it — the loop aborts with
	// the round's error, which a chaos harness asserts leaves the
	// already-labeled budget accounting intact.
	ActiveAcquireRound
	numPoints
)

// String names the hook point (used in stats and reports).
func (p Point) String() string {
	switch p {
	case EngineTaskStart:
		return "engine.task_start"
	case EngineTaskDone:
		return "engine.task_done"
	case CoreArtifactLoad:
		return "core.artifact_load"
	case ServeAdmit:
		return "serve.admit"
	case ServeBatchFlush:
		return "serve.batch_flush"
	case ServeReload:
		return "serve.reload"
	case ServeCacheLookup:
		return "serve.cache_lookup"
	case GatewayRoute:
		return "gateway.route"
	case GatewayHealthProbe:
		return "gateway.health_probe"
	case ActiveAcquireRound:
		return "active.acquire_round"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Points lists every hook point, in declaration order.
func Points() []Point {
	out := make([]Point, numPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// Plan configures the faults one hook point fires. A fired call first
// sleeps Latency (if any), then returns Err (which may be nil for a
// latency-only fault). To exercise cancellation handling at a point, set
// Err to context.Canceled or context.DeadlineExceeded — callers see
// exactly what a cancelled context would have produced.
type Plan struct {
	// Prob is the probability in [0,1] that a call fires, decided
	// deterministically from the injector seed and the call index.
	Prob float64
	// Every, when non-zero, overrides Prob: every Every-th call fires
	// (counting from the Every-th), a strictly periodic schedule.
	Every uint64
	// Latency is slept on each fired call before Err is returned.
	Latency time.Duration
	// Err is returned by fired calls; nil makes the fault latency-only.
	Err error
	// Limit, when non-zero, caps the total number of fires at the point.
	Limit uint64
}

// pointState is one hook point's compiled plan plus its call/fire
// counters. Counters are atomics so concurrent hook sites never lock.
type pointState struct {
	enabled bool
	plan    Plan
	seed    uint64
	calls   atomic.Uint64
	fires   atomic.Uint64
}

// Injector decides, per hook point, whether and how to perturb
// execution. The zero-configuration injector ([Disabled]) never fires.
type Injector struct {
	seed   int64
	clock  Clock
	points [numPoints]pointState
}

// Option customizes an Injector beyond its per-point plans.
type Option func(*Injector)

// WithClockSkew replaces the injector's clock with one skewed by a fixed
// offset plus a deterministic per-reading wobble in [-jitter, +jitter],
// so time-based bookkeeping (queue waits, latency histograms) is
// exercised against a misbehaving clock.
func WithClockSkew(offset, jitter time.Duration) Option {
	return func(in *Injector) {
		in.clock = &skewClock{offset: offset, jitter: jitter, seed: mix(uint64(in.seed), uint64(numPoints)+1)}
	}
}

// New builds an injector whose plans fire deterministically under seed.
func New(seed int64, plans map[Point]Plan, opts ...Option) *Injector {
	in := &Injector{seed: seed, clock: realClock{}}
	for p, plan := range plans {
		if p >= numPoints {
			panic(fmt.Sprintf("faultinject: unknown point %d", p))
		}
		st := &in.points[p]
		st.enabled = plan.Prob > 0 || plan.Every > 0
		st.plan = plan
		st.seed = mix(uint64(seed), uint64(p)+1)
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// disabled is the package's permanent no-op singleton.
var disabled = &Injector{clock: realClock{}}

// Disabled returns the no-op injector: every Hit is a single branch.
func Disabled() *Injector { return disabled }

// active is the process-global injector consulted by the compiled-in
// hook points. An atomic pointer keeps reads lock-free on hot paths.
var active atomic.Pointer[Injector]

func init() { active.Store(disabled) }

// Active returns the process-global injector. Hook sites call this (or
// cache it at worker construction, which is equally valid because chaos
// harnesses activate before building the system under test).
func Active() *Injector { return active.Load() }

// Activate installs in as the process-global injector and returns a
// function restoring the previous one. A nil in activates Disabled().
// Intended for chaos harnesses and tests; activate before constructing
// the components under test so construction-time snapshots (batch
// worker clocks) observe it.
func Activate(in *Injector) (restore func()) {
	if in == nil {
		in = disabled
	}
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Seed returns the seed the injector's decisions derive from.
func (in *Injector) Seed() int64 { return in.seed }

// Enabled reports whether any hook point has a live plan.
func (in *Injector) Enabled() bool {
	for i := range in.points {
		if in.points[i].enabled {
			return true
		}
	}
	return false
}

// Hit evaluates one hook point. When the point's plan decides this call
// fires, Hit sleeps the plan's latency (abandoning the sleep early, and
// returning the context's error, if ctx is cancelled first) and returns
// the plan's forced error; fired reports whether any fault was applied,
// so call sites can count latency-only faults too. On the disabled
// injector this is one branch: no allocation, no atomic, no lock.
func (in *Injector) Hit(ctx context.Context, p Point) (fired bool, err error) {
	st := &in.points[p]
	if !st.enabled {
		return false, nil
	}
	n := st.calls.Add(1)
	if st.plan.Every > 0 {
		if n%st.plan.Every != 0 {
			return false, nil
		}
	} else if unit(mix(st.seed, n)) >= st.plan.Prob {
		return false, nil
	}
	if st.plan.Limit > 0 {
		// Reserve a fire slot; back out when over the cap. Fires may be
		// attributed to different call indices across concurrent runs, but
		// the total never exceeds Limit.
		if st.fires.Add(1) > st.plan.Limit {
			st.fires.Add(^uint64(0))
			return false, nil
		}
	} else {
		st.fires.Add(1)
	}
	if d := st.plan.Latency; d > 0 {
		if err := sleep(ctx, d); err != nil {
			return true, err
		}
	}
	return true, st.plan.Err
}

// sleep waits d, abandoning early with the context's error if ctx is
// done first. A nil ctx sleeps unconditionally.
func sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
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

// Stats snapshots per-point call and fire counts for every enabled
// point, keyed by the point's String name.
func (in *Injector) Stats() map[string]PointStats {
	out := make(map[string]PointStats)
	for i := range in.points {
		st := &in.points[i]
		if !st.enabled {
			continue
		}
		out[Point(i).String()] = PointStats{Calls: st.calls.Load(), Fires: st.fires.Load()}
	}
	return out
}

// Clock returns the injector's clock: real time by default, skewed when
// built WithClockSkew. Long-lived components snapshot this at
// construction so their time reads flow through the injector.
func (in *Injector) Clock() Clock { return in.clock }

// mix is a splitmix64-style finalizer: a high-quality stateless hash of
// (seed, n) used for per-call fire decisions and clock wobble.
func mix(seed, n uint64) uint64 {
	z := seed + n*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
