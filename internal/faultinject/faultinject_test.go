package faultinject

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvery pins the cadence: an Every: 3 plan fires on calls 3, 6, 9,
// 12 and nowhere else, and Stats counts every call and every fire.
func TestEvery(t *testing.T) {
	in := New(map[Point]Plan{ServeArtifactLoad: {Every: 3, Err: errors.New("boom")}})
	var fires []int
	for i := 1; i <= 12; i++ {
		fired, err := in.Hit(context.Background(), ServeArtifactLoad)
		if fired != (err != nil) {
			t.Fatalf("call %d: fired=%v err=%v", i, fired, err)
		}
		if fired {
			fires = append(fires, i)
		}
	}
	if len(fires) != 4 || fires[0] != 3 || fires[1] != 6 || fires[2] != 9 || fires[3] != 12 {
		t.Fatalf("Every=3 fired on calls %v, want [3 6 9 12]", fires)
	}
	st := in.Stats()[ServeArtifactLoad.String()]
	if st.Calls != 12 || st.Fires != 4 {
		t.Fatalf("stats = %+v, want 12 calls 4 fires", st)
	}
}

// TestConcurrentHitExactCounts hammers one point from 8 goroutines: the
// cadence is one atomic counter, so the totals are exact whatever the
// interleaving — 8000 calls, floor(8000/7) = 1142 fires.
func TestConcurrentHitExactCounts(t *testing.T) {
	in := New(map[Point]Plan{ServeBatchFlush: {Every: 7}})
	const goroutines, hits = 8, 1000
	var wg sync.WaitGroup
	var fired atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				if f, err := in.Hit(context.Background(), ServeBatchFlush); err != nil {
					t.Errorf("latency/error-free plan returned %v", err)
					return
				} else if f {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	want := PointStats{Calls: goroutines * hits, Fires: goroutines * hits / 7}
	if st := in.Stats()[ServeBatchFlush.String()]; st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if fired.Load() != want.Fires {
		t.Fatalf("callers saw %d fires, stats say %d", fired.Load(), want.Fires)
	}
}

func TestForcedErrorAndCancellationShape(t *testing.T) {
	in := New(map[Point]Plan{ServeReload: {Every: 1, Err: context.Canceled}})
	fired, err := in.Hit(context.Background(), ServeReload)
	if !fired || !errors.Is(err, context.Canceled) {
		t.Fatalf("forced cancellation: fired=%v err=%v", fired, err)
	}
}

func TestLatencySleepHonorsContext(t *testing.T) {
	in := New(map[Point]Plan{ServeAdmit: {Every: 1, Latency: time.Minute}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	fired, err := in.Hit(ctx, ServeAdmit)
	if !fired || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency: fired=%v err=%v", fired, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled sleep did not return promptly")
	}
}

func TestDisabledIsInertAndAllocationFree(t *testing.T) {
	in := disabled
	if st := in.Stats(); len(st) != 0 {
		t.Fatalf("disabled injector reports stats %v", st)
	}
	for p := Point(0); p < numPoints; p++ {
		if fired, err := in.Hit(context.Background(), p); fired || err != nil {
			t.Fatalf("%v: disabled injector fired", p)
		}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range []Point{ServeAdmit, ServeBatchFlush, ServeCacheLookup} {
			if fired, _ := Active().Hit(ctx, p); fired {
				t.Fatal("active default fired")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled hook path allocates %v allocs/op, want 0", allocs)
	}
}

func TestActivateRestore(t *testing.T) {
	in := New(map[Point]Plan{ServeAdmit: {Every: 1, Err: errors.New("x")}})
	restore := Activate(in)
	if Active() != in {
		t.Fatal("Activate did not install")
	}
	restore()
	if Active() != disabled {
		t.Fatal("restore did not reinstate the previous injector")
	}
	// Activating nil means "disable".
	restore = Activate(nil)
	if Active() != disabled {
		t.Fatal("Activate(nil) did not disable")
	}
	restore()
}

// TestPointNamesStable pins every hook point's wire name: chaos
// schedules, stats maps and reports key on these strings, so a rename
// is a breaking change this test makes deliberate.
func TestPointNamesStable(t *testing.T) {
	want := map[Point]string{
		ServeAdmit:        "serve.admit",
		ServeBatchFlush:   "serve.batch_flush",
		ServeReload:       "serve.reload",
		ServeArtifactLoad: "serve.artifact_load",
		ServeCacheLookup:  "serve.cache_lookup",
		GatewayRoute:      "gateway.route",
	}
	if int(numPoints) != len(want) {
		t.Fatalf("%d points declared, this test covers %d — update the name table", numPoints, len(want))
	}
	seen := map[string]Point{}
	for p := Point(0); p < numPoints; p++ {
		name, ok := want[p]
		if !ok {
			t.Fatalf("point %d has no pinned name", p)
		}
		if got := p.String(); got != name {
			t.Errorf("point %d named %q, want %q", p, got, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("points %d and %d share the name %q", prev, p, name)
		}
		seen[name] = p
	}
}
