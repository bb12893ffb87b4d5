package loadtest

import (
	"context"
	"reflect"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/engine"
	"perfpred/internal/faultinject"
)

// logf routes harness progress into the test log.
func logf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// failReport dumps the report's violations with the reproducing seed.
func failReport(t *testing.T, rep *Report) {
	t.Helper()
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !rep.OK() {
		t.Fatalf("chaos run violated %d invariants; reproduce with seed %d (schedule %#x)",
			len(rep.Violations), rep.Seed, rep.ScheduleHash)
	}
}

// TestChaosScenarioSeeded is the acceptance scenario: a seeded chaos
// run with faults armed must actually trigger shedding, failed (and
// successful) reloads, deadline expiries, cache hits and stalled cache
// lookups — and still hold every serving invariant, with every 200
// bit-matching offline scoring and the generation-boundary epilogue
// proving no hit survives a reload.
func TestChaosScenarioSeeded(t *testing.T) {
	rep, err := Run(Config{
		Seed:     7,
		Duration: 1200 * time.Millisecond,
		Faults:   true,
		Logf:     logf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	failReport(t, rep)
	sr := rep.Replicas[0]

	// The run must have exercised each chaos class, not just survived.
	if sr.Shed == 0 {
		t.Error("chaos run shed nothing: bursts never overflowed the admission queue")
	}
	if rep.StatusCounts["504"] == 0 {
		t.Error("chaos run saw no deadline expiries: flush stalls never outlived the request timeout")
	}
	if rep.Reloads.Failed == 0 {
		t.Error("chaos run had no failed reloads: reload/artifact faults never fired")
	}
	if rep.Reloads.OK == 0 {
		t.Error("chaos run had no successful reloads")
	}
	if sr.FaultsInjected == 0 {
		t.Error("no faults fired on the serving path")
	}
	if rep.BitCompared == 0 {
		t.Error("no successful predictions were bit-compared against offline scoring")
	}
	if rep.BitMismatches != 0 {
		t.Errorf("%d of %d predictions diverged from offline scoring", rep.BitMismatches, rep.BitCompared)
	}
	if sr.Cache.Hits == 0 {
		t.Error("chaos run recorded no cache hits: the duplicate class never landed")
	}
	if fs := rep.FaultStats[faultinject.ServeCacheLookup.String()]; fs.Fires == 0 {
		t.Error("cache-lookup latency fault never fired")
	}
	if rep.Epilogue == nil || rep.Epilogue.ReloadsOK == 0 {
		t.Errorf("generation-boundary epilogue did not complete: %+v", rep.Epilogue)
	}
}

// TestCleanRunNoFaults replays a schedule against an unfaulted daemon:
// no 500s, no injected faults, and still bit-exact responses — with
// real cache hits behind them.
func TestCleanRunNoFaults(t *testing.T) {
	rep, err := Run(Config{
		Seed:     11,
		Duration: 800 * time.Millisecond,
		Faults:   false,
		Logf:     logf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	failReport(t, rep)
	sr := rep.Replicas[0]
	if sr.FaultsInjected != 0 {
		t.Errorf("faults disabled but %d fired", sr.FaultsInjected)
	}
	if n := rep.StatusCounts["500"]; n != 0 {
		t.Errorf("clean run produced %d server errors", n)
	}
	if rep.BitCompared == 0 || rep.BitMismatches != 0 {
		t.Errorf("bit comparison: %d compared, %d mismatched", rep.BitCompared, rep.BitMismatches)
	}
	if sr.Cache.Hits == 0 {
		t.Error("clean run recorded no cache hits")
	}
	// Too short a replay to judge the heap, but it is still sampled.
	if rep.HeapSamples == 0 || rep.HeapFirstPeakMiB != 0 {
		t.Errorf("heap: %d samples, first-quarter peak %v MiB; want samples and no verdict", rep.HeapSamples, rep.HeapFirstPeakMiB)
	}
}

// TestScheduleDeterministic pins the reproducibility contract: the same
// seed yields byte-identical scheduling decisions, a different seed
// diverges.
func TestScheduleDeterministic(t *testing.T) {
	models := []string{"lre", "nns", "treeb"}
	a := BuildSchedule(7, 300, 2*time.Second, models, 192)
	b := BuildSchedule(7, 300, 2*time.Second, models, 192)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("same schedule hashed differently")
	}
	c := BuildSchedule(8, 300, 2*time.Second, models, 192)
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds produced the same schedule hash")
	}
	// The schedule must contain every chaos ingredient.
	var bursts map[time.Duration]int = map[time.Duration]int{}
	kinds := map[PayloadKind]int{}
	reloads, timeouts, hot := 0, 0, 0
	for _, ev := range a.Events {
		if ev.Reload {
			reloads++
			continue
		}
		kinds[ev.Payload]++
		bursts[ev.At]++
		if ev.Timeout > 0 {
			timeouts++
		}
		if ev.Hot {
			hot++
			for _, idx := range ev.RowIdxs {
				if idx >= hotPoolSize {
					t.Errorf("hot request %d drew row %d outside the hot pool (size %d)", ev.Seq, idx, hotPoolSize)
				}
			}
		}
	}
	if reloads == 0 || timeouts == 0 {
		t.Fatalf("schedule missing reloads (%d) or client timeouts (%d)", reloads, timeouts)
	}
	if hot == 0 {
		t.Error("schedule has no duplicate-class (hot) requests")
	}
	for _, k := range []PayloadKind{PayloadOK, PayloadBadWidth, PayloadBadType, PayloadUnknownModel, PayloadUnknownCategory} {
		if kinds[k] == 0 {
			t.Errorf("schedule has no %v payloads", k)
		}
	}
	maxBurst := 0
	for _, n := range bursts {
		if n > maxBurst {
			maxBurst = n
		}
	}
	if maxBurst < burstSize {
		t.Errorf("largest synchronized burst is %d requests, want >= %d", maxBurst, burstSize)
	}
}

// TestSameSeedReproduces runs the full harness twice with one seed: the
// scheduling decisions (and so the schedule hash recorded in the
// report) must be identical, and both runs must pass.
func TestSameSeedReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("two full harness runs")
	}
	cfg := Config{Seed: 21, Duration: 700 * time.Millisecond, Faults: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failReport(t, a)
	failReport(t, b)
	if a.ScheduleHash != b.ScheduleHash {
		t.Fatalf("same seed produced different schedules: %#x vs %#x", a.ScheduleHash, b.ScheduleHash)
	}
}

// TestGoldenScoringZeroAlloc pins the harness's own comparison path:
// offline scoring of a served artifact on a worker context — the
// reference every 200 is bit-compared against — allocates nothing in
// steady state with faults disabled, proving the fault hooks put no
// allocations on the kernel path.
func TestGoldenScoringZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	fx, err := buildFixture(dir, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	wctx := engine.NewWorkerContext(context.Background())
	for _, name := range fx.models {
		p, err := core.LoadPredictorFile(dir + "/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(fx.rows))
		// Warm the worker-local scratch, then demand zero allocations.
		if err := p.PredictRowsInto(wctx, out, fx.rows); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := p.PredictRowsInto(wctx, out, fx.rows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state scoring allocates %.1f times per batch, want 0", name, allocs)
		}
	}
}

// TestGatewayCleanRun replays a schedule through the gateway over two
// clean replicas: bit-exact responses, perfect cache affinity (every hot
// key on exactly one replica), zero ejections, and per-replica
// generation/shed/cache accounting that reconciles.
func TestGatewayCleanRun(t *testing.T) {
	rep, err := Run(Config{
		Seed:     11,
		Duration: 900 * time.Millisecond,
		Faults:   false,
		Replicas: 2,
		Logf:     logf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	failReport(t, rep)
	if rep.Gateway == nil || len(rep.Replicas) != 2 {
		t.Fatalf("fronted-tier report incomplete: gateway=%v replicas=%d", rep.Gateway != nil, len(rep.Replicas))
	}
	if rep.Gateway.FaultsInjected != 0 {
		t.Errorf("faults disabled but %d gateway faults fired", rep.Gateway.FaultsInjected)
	}
	if rep.BitCompared == 0 || rep.BitMismatches != 0 {
		t.Errorf("bit comparison: %d compared, %d mismatched", rep.BitCompared, rep.BitMismatches)
	}
	if rep.AffinityKeys == 0 || rep.AffinityMaxSpread != 1 {
		t.Errorf("cache affinity not perfect: %d keys, max spread %d (want 1)",
			rep.AffinityKeys, rep.AffinityMaxSpread)
	}
	var hits int64
	for _, sr := range rep.Replicas {
		hits += sr.Cache.Hits
	}
	if hits == 0 {
		t.Error("gateway run recorded no replica cache hits")
	}
}

// TestGatewayChaosKillRestart is the gateway acceptance scenario: a
// seeded chaos run through the gateway over three replicas with the
// serving fault plans armed AND one replica killed mid-schedule and
// restarted — no request may be lost, every 200 stays bit-identical to
// offline scoring, the gateway must eject and readmit the crashed
// replica, affinity may spread to at most two replicas per key, and the
// generation-boundary epilogue must complete across every replica.
func TestGatewayChaosKillRestart(t *testing.T) {
	rep, err := Run(Config{
		Seed:        7,
		Duration:    1500 * time.Millisecond,
		Faults:      true,
		Replicas:    3,
		ReplicaKill: true,
		Logf:        logf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	failReport(t, rep)
	if rep.ReplicaKills != 1 || rep.ReplicaRestarts != 1 {
		t.Fatalf("kill choreography: %d kills, %d restarts", rep.ReplicaKills, rep.ReplicaRestarts)
	}
	if rep.Gateway.Ejects == 0 || rep.Gateway.Readmits == 0 {
		t.Errorf("health machine never cycled: %d ejects, %d readmits", rep.Gateway.Ejects, rep.Gateway.Readmits)
	}
	t.Logf("gateway counters: requests=%d retries=%d errors=%d ejects=%d readmits=%d",
		rep.Gateway.Requests, rep.Gateway.Retries,
		rep.Gateway.Errors, rep.Gateway.Ejects, rep.Gateway.Readmits)
	for _, rr := range rep.Gateway.Replicas {
		t.Logf("  replica %s: healthy=%v requests=%d transportErrs=%d ejects=%d readmits=%d probes=%d probeFails=%d",
			rr.Addr, rr.Healthy, rr.Requests, rr.TransportErrors, rr.Ejects, rr.Readmits, rr.Probes, rr.ProbeFailures)
	}
	// Whether a predict lands on the corpse before probes eject it is
	// timing-dependent (the pre-ejection window is ~2 probe intervals),
	// so transparent retries cannot be asserted here — the gateway's
	// TestRetryOnDeadReplica pins that mechanism deterministically.
	// What IS deterministic: the ~450ms dead window spans many probe
	// intervals, so the crash must have left a trace on the victim.
	var crashObserved bool
	for _, rr := range rep.Gateway.Replicas {
		if rr.ProbeFailures > 0 || rr.TransportErrors > 0 {
			crashObserved = true
		}
	}
	if !crashObserved && rep.Gateway.Retries == 0 {
		t.Error("kill/restart left no trace on any replica (no probe failures, transport errors, or retries)")
	}
	if rep.Gateway.FaultsInjected == 0 {
		t.Error("no gateway-path faults fired")
	}
	if rep.BitCompared == 0 {
		t.Error("no successful predictions were bit-compared against offline scoring")
	}
	if rep.BitMismatches != 0 {
		t.Errorf("%d of %d predictions diverged from offline scoring", rep.BitMismatches, rep.BitCompared)
	}
	if rep.AffinityMaxSpread > 2 {
		t.Errorf("affinity spread %d exceeds the kill allowance of 2", rep.AffinityMaxSpread)
	}
	if rep.Epilogue == nil || rep.Epilogue.ReloadsOK != len(rep.Replicas) {
		t.Errorf("generation-boundary epilogue did not reload every replica: %+v", rep.Epilogue)
	}
}

// TestReplicaConfigValidation pins the replica-count contract: 0 or 1
// is a bare daemon, ≥ 2 a fronted tier; a negative count, or a kill
// without a survivor to fail over to, is rejected before any work.
func TestReplicaConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Replicas: -1}); err == nil {
		t.Error("Run accepted a negative replica count")
	}
	for _, n := range []int{0, 1} {
		if _, err := Run(Config{Seed: 1, Replicas: n, ReplicaKill: true}); err == nil {
			t.Errorf("Run accepted ReplicaKill with %d replicas", n)
		}
	}
}
