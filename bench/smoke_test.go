package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"perfpred"
)

// smokeDSE is the dse workload shrunk for tests: every 36th design
// point, so 128 of them, a quarter of which are sampled, with its own
// pinned selection.
var smokeDSE = dseConfig{stride: 36, fraction: 0.25, pinKind: perfpred.NNS, pinMAPE: 6.1586272321169311}

// smokeConfig shrinks a run to under a second of traffic per phase, and
// serves fx instead of building a fixture per set-up.
func smokeConfig(t *testing.T, fx *fixture) runConfig {
	return runConfig{
		seed:    1,
		warm:    200 * time.Millisecond,
		phase:   700 * time.Millisecond,
		spans:   t.TempDir(),
		dse:     smokeDSE,
		fixture: func() (*fixture, error) { return fx, nil },
	}
}

var (
	fixtureOnce sync.Once
	fixtureDir  string
	testFx      *fixture
	fixtureErr  error
)

// sharedFixture builds the serving fixture once for the whole test run.
func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		if fixtureDir, fixtureErr = os.MkdirTemp("", "bench-fixture-"); fixtureErr == nil {
			testFx, fixtureErr = buildFixture(context.Background(), fixtureDir)
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return testFx
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}

// TestSmokeEveryWorkload runs every workload untraced and traced, and
// requires every operation to pass its checks and every metric
// BENCHMARK.json lists (and no other) to come out finite.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp := testSpec(t)
	fx := sharedFixture(t)
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			rc := smokeConfig(t, fx)
			res, err := runWorkload(context.Background(), sp, w.Name, rc, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			}
			if _, serving := servingTraffic[w.Name]; serving && traced {
				info, err := os.Stat(filepath.Join(rc.spans, "spans-"+w.Name+".json"))
				if err != nil || info.Size() == 0 {
					t.Errorf("%s: no spans written: %v", w.Name, err)
				}
			}
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a serving workload")
	}
	fx := *sharedFixture(t)
	rc := smokeConfig(t, &fx)
	first := buildSchedule(&fx, servingTraffic["point_hot"], rc.seed, rc.warm+rc.phase)[0]
	fx.golden = append([][]float64(nil), fx.golden...)
	fx.golden[first.model] = append([]float64(nil), fx.golden[first.model]...)
	g := &fx.golden[first.model][first.row]
	*g = math.Nextafter(*g, math.Inf(1))
	o, err := runServing(context.Background(), "point_hot", rc, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testSpec(t).result(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("a golden one ulp off went unnoticed: %d of %d failed", res.Failed, res.Attempted)
	}
}

func TestWrongDSEPinFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dse workload")
	}
	rc := smokeConfig(t, nil)
	rc.dse.pinMAPE = math.Nextafter(rc.dse.pinMAPE, 0)
	o, err := runDSE(context.Background(), rc, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testSpec(t).result(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Attempted || res.Correct {
		t.Fatalf("a wrong pin failed %d of %d runs", res.Failed, res.Attempted)
	}
}
