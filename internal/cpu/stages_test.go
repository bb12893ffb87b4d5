package cpu_test

import (
	"context"
	"math"
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
					if *got != *want || math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) {
						t.Fatalf("%+v:\n staged %+v\n direct %+v", cfg.Mem, *got, *want)
					}
				}
			}
		})
	}
}

func TestSweepSimulatesEachStageOnce(t *testing.T) {
	e := newEvaluator(t, "gcc", 5000)
	if _, err := space.Sweep(context.Background(), e, space.Enumerate(), engine.Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"l1i": 6, "l1d": 6, "itlb": 2, "dtlb": 2, "stack": 144,
		"pred": len(bpred.Kinds()),
	}
	for stage, c := range e.StageCounts() {
		if c.Entries != want[stage] || c.Runs != c.Entries {
			t.Errorf("%s: %d entries computed %d times, want %d computed once each", stage, c.Entries, c.Runs, want[stage])
		}
	}
}
