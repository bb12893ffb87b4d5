package space

import (
	"context"
	"testing"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/stat"
	"perfpred/internal/trace"
)

func sweepTrace(t *testing.T, name string, n int) *cpu.Evaluator {
	t.Helper()
	tr, err := trace.GenerateBenchmark(name, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cpu.NewEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSweepSubsetDeterministicAcrossWorkers(t *testing.T) {
	e := sweepTrace(t, "gcc", 8000)
	cfgs := Enumerate()[:128]
	c1, err := Sweep(context.Background(), e, cfgs, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Sweep(context.Background(), sweepTrace(t, "gcc", 8000), cfgs, engine.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("config %d: 1-worker %v vs 8-worker %v", i, c1[i], c8[i])
		}
	}
}

func TestSweepAllPositive(t *testing.T) {
	e := sweepTrace(t, "mesa", 8000)
	cfgs := Enumerate()[:256]
	cycles, err := Sweep(context.Background(), e, cfgs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cycles {
		if c <= 0 {
			t.Fatalf("config %d: cycles %v", i, c)
		}
	}
}

func TestSweepBenchmark(t *testing.T) {
	tr, cfgs, cycles, err := SweepBenchmark(context.Background(), "mesa", 8000, 1, 48, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := Enumerate()
	if tr.Len() != 8000 || len(cfgs) != len(all)/48 || len(cycles) != len(cfgs) {
		t.Fatalf("trace %d, %d configs, %d cycles", tr.Len(), len(cfgs), len(cycles))
	}
	want, err := Sweep(context.Background(), sweepTrace(t, "mesa", 8000), cfgs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cfgs {
		if c != all[48*i] || cycles[i] != want[i] {
			t.Fatalf("point %d: config %+v cycles %v, want %+v and %v", i, c, cycles[i], all[48*i], want[i])
		}
	}
	if _, _, _, err := SweepBenchmark(context.Background(), "doom3", 8000, 1, 48, engine.Options{}); err == nil {
		t.Fatal("unknown benchmark: want error")
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, Enumerate()[:1], engine.Options{}); err == nil {
		t.Fatal("nil evaluator: want error")
	}
	e := sweepTrace(t, "gcc", 2000)
	if _, err := Sweep(context.Background(), e, nil, engine.Options{}); err == nil {
		t.Fatal("no configs: want error")
	}
}

// TestWorkloadCalibration checks the §4.1 shape: the per-application
// cycle range over a sampled slice of the design space must order the
// applications the way the paper's full-space statistics do
// (mcf > gcc > mesa > equake ≥ applu) with applu nearly flat and mcf
// strongly configuration-sensitive.
func TestWorkloadCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	ranges := map[string]float64{}
	for _, name := range []string{"applu", "equake", "gcc", "mesa", "mcf"} {
		// Each profile's recommended length (trace length 0) guarantees
		// every reuse loop completes multiple passes, and a stride coprime
		// to every enumeration dimension covers the space.
		_, _, cycles, err := SweepBenchmark(context.Background(), name, 0, 1, 11, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := stat.Range(cycles)
		if err != nil {
			t.Fatal(err)
		}
		ranges[name] = r
		t.Logf("%s: range %.2f variance %.3f", name, r, stat.NormalizedVariance(cycles))
	}
	if !(ranges["mcf"] > ranges["gcc"]) {
		t.Errorf("mcf range %.2f should exceed gcc %.2f", ranges["mcf"], ranges["gcc"])
	}
	if !(ranges["gcc"] > ranges["mesa"]) {
		t.Errorf("gcc range %.2f should exceed mesa %.2f", ranges["gcc"], ranges["mesa"])
	}
	if !(ranges["mesa"] > ranges["applu"]) {
		t.Errorf("mesa range %.2f should exceed applu %.2f", ranges["mesa"], ranges["applu"])
	}
	// Loose absolute bands around the paper's values.
	band := func(name string, lo, hi float64) {
		if r := ranges[name]; r < lo || r > hi {
			t.Errorf("%s range %.2f outside calibration band [%.1f, %.1f] (paper %.2f)",
				name, r, lo, hi, map[string]float64{
					"applu": 1.62, "equake": 1.73, "gcc": 5.27, "mesa": 2.22, "mcf": 6.38,
				}[name])
		}
	}
	band("applu", 1.2, 2.2)
	band("equake", 1.3, 2.6)
	band("gcc", 2.8, 8.5)
	band("mesa", 1.5, 3.6)
	band("mcf", 3.0, 10.5)
	if !(ranges["gcc"] > ranges["equake"]) {
		t.Errorf("gcc range %.2f should exceed equake %.2f", ranges["gcc"], ranges["equake"])
	}
}

// TestSweepAllocs bounds what one full-space sweep allocates at a 5k
// trace on a fresh evaluator: about 1.35k objects, mostly the memo
// entries, the L1 passes' growing event streams and the two phases'
// engine tasks. A Result per configuration (4608 more) or fresh L2 and L3
// arrays per stack pass (about 430 more) cannot come back unnoticed.
func TestSweepAllocs(t *testing.T) {
	const runs, bound = 2, 1460
	cfgs := Enumerate()
	for _, workers := range []int{1, 2} {
		evals := make([]*cpu.Evaluator, runs+1) // AllocsPerRun calls once more to warm up
		for i := range evals {
			evals[i] = sweepTrace(t, "gcc", 5000)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			eval := evals[0]
			evals = evals[1:]
			if _, err := Sweep(context.Background(), eval, cfgs, engine.Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("workers=%d: a full-space sweep made %.0f allocations, want at most %d", workers, allocs, bound)
		}
	}
}
