package cpu_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"perfpred/internal/bpred"
	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/mem"
	"perfpred/internal/space"
	"perfpred/internal/trace"
)

func newEvaluator(t *testing.T, name string, n int) *cpu.Evaluator {
	t.Helper()
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cpu.NewEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hierarchies returns one design-space configuration per distinct memory
// hierarchy of space.Enumerate.
func hierarchies() []cpu.Config {
	seen := map[mem.HierarchyConfig]bool{}
	var out []cpu.Config
	for _, m := range space.Enumerate() {
		cfg := m.CPUConfig()
		if !seen[cfg.Mem] {
			seen[cfg.Mem] = true
			out = append(out, cfg)
		}
	}
	return out
}

func TestEvaluatorMatchesOracle(t *testing.T) {
	cfgs := hierarchies()
	if len(cfgs) != 288 {
		t.Fatalf("design space has %d hierarchies, want 288", len(cfgs))
	}
	for _, bench := range []string{"gcc", "mcf"} {
		t.Run(bench, func(t *testing.T) {
			e := newEvaluator(t, bench, 60000)
			for _, prefetch := range []bool{false, true} {
				for _, cfg := range cfgs {
					cfg.Mem.NextLinePrefetch = prefetch
					got, err := e.Simulate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cpu.OracleSimulate(e, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) {
						t.Fatalf("%+v:\n staged %+v\n direct %+v", cfg.Mem, got, want)
					}
				}
			}
		})
	}
}

// TestSweepSimulatesEachStageOnce sweeps the full space in enumeration
// order, a stride-7 sample and a shuffle of the space, each on a fresh
// evaluator: every stage must run once per key, the sweep must run one
// task per full-trace pass and then one per distinct L2 pass, every
// full-trace-pass task must finish before the first L2-group task starts,
// and every configuration's cycles must equal the in-order sweep's.
func TestSweepSimulatesEachStageOnce(t *testing.T) {
	all := space.Enumerate()
	ref, err := space.Sweep(context.Background(), newEvaluator(t, "gcc", 5000), all, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[space.MicroConfig]int, len(all))
	for i, m := range all {
		index[m] = i
	}
	var strided []space.MicroConfig
	for i := 0; i < len(all); i += 7 {
		strided = append(strided, all[i])
	}
	shuffled := slices.Clone(all)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	want := map[string]int{
		"l1i": 6, "l1d": 6, "itlb": 2, "dtlb": 2, "l2": 72, "stack": 144,
		"pred": len(bpred.Kinds()),
	}
	tracePasses := want["l1i"] + want["l1d"] + want["itlb"] + want["dtlb"] + want["pred"]
	for _, tc := range []struct {
		name    string
		cfgs    []space.MicroConfig
		workers int
	}{
		{"enumeration/workers=2", all, 2},
		{"enumeration/workers=8", all, 8},
		{"stride7", strided, 2},
		{"shuffled", shuffled, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var traceTasks, groupTasks, early atomic.Int64
			hook := func(ev engine.Event) {
				switch {
				case ev.Kind == engine.TaskDone && strings.HasPrefix(ev.Label, "sweep trace["):
					traceTasks.Add(1)
				case ev.Kind == engine.TaskStart && strings.HasPrefix(ev.Label, "sweep["):
					if traceTasks.Load() != int64(tracePasses) {
						early.Add(1)
					}
				case ev.Kind == engine.TaskDone && strings.HasPrefix(ev.Label, "sweep["):
					groupTasks.Add(1)
				}
			}
			e := newEvaluator(t, "gcc", 5000)
			cycles, err := space.Sweep(context.Background(), e, tc.cfgs, engine.Options{Workers: tc.workers, Hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range tc.cfgs {
				if want := ref[index[m]]; math.Float64bits(cycles[i]) != math.Float64bits(want) {
					t.Fatalf("config %d (%+v): %v cycles, in-order sweep %v", i, m, cycles[i], want)
				}
			}
			for stage, c := range e.StageCounts() {
				if c.Entries != want[stage] || c.Runs != c.Entries {
					t.Errorf("%s: %d entries computed %d times, want %d computed once each", stage, c.Entries, c.Runs, want[stage])
				}
			}
			if got := traceTasks.Load(); got != int64(tracePasses) {
				t.Errorf("%d full-trace-pass tasks, want one per pass (%d)", got, tracePasses)
			}
			if got := groupTasks.Load(); got != int64(want["l2"]) {
				t.Errorf("%d sweep group tasks, want one per L2 pass (%d)", got, want["l2"])
			}
			if n := early.Load(); n > 0 {
				t.Errorf("%d group tasks started before every full-trace pass finished", n)
			}
		})
	}
}
