package experiments

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/engine"
)

// TestSweepMemoSimulatesEachSpaceOnce runs two experiments that read the
// same benchmark's space under one memo and checks the space was swept
// once, that a different stride is a different space, and that the
// studies match the ones run without a memo.
func TestSweepMemoSimulatesEachSpaceOnce(t *testing.T) {
	var sweepTasks atomic.Int64
	cfg := fastCfg()
	cfg.Hook = func(e engine.Event) {
		if e.Kind == engine.TaskDone && strings.HasPrefix(e.Label, "sweep[") {
			sweepTasks.Add(1)
		}
	}
	ctx := WithSweepMemo(context.Background())
	_, cfgs, _, err := sweep(ctx, "mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	perSweep := sweepTasks.Load()
	if perSweep == 0 {
		t.Fatal("the first sweep ran no sweep tasks")
	}
	kinds := []core.ModelKind{core.LRB}
	memoSel, err := RunSelectAblation(ctx, "mcf", 0.5, kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memoCurve, err := RunLearningCurve(ctx, "mcf", core.LRB, []float64{0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, again, _, err := sweep(ctx, "mcf", cfg)
			switch {
			case err != nil:
				t.Error(err)
			case &again[0] != &cfgs[0]:
				t.Error("a concurrent read did not get the memoized space")
			}
		}()
	}
	wg.Wait()
	if got := sweepTasks.Load(); got != perSweep {
		t.Fatalf("%d sweep tasks after seven reads of one space, want %d", got, perSweep)
	}

	wide := cfg
	wide.SpaceStride = 2 * cfg.SpaceStride
	_, wideCfgs, _, err := sweep(ctx, "mcf", wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(wideCfgs) >= len(cfgs) || sweepTasks.Load() == perSweep {
		t.Fatalf("stride %d reused the stride-%d space", wide.SpaceStride, cfg.SpaceStride)
	}

	cfg.Hook = nil
	sel, err := RunSelectAblation(context.Background(), "mcf", 0.5, kinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := RunLearningCurve(context.Background(), "mcf", core.LRB, []float64{0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *sel != *memoSel || curve.TrueMAPE[0] != memoCurve.TrueMAPE[0] {
		t.Fatalf("memoized studies differ: %+v / %+v, %v / %v", memoSel, sel, memoCurve.TrueMAPE, curve.TrueMAPE)
	}
}
