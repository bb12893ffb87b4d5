package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"perfpred/internal/serve"
	"perfpred/internal/space"
)

// scheduleFixture is a fixture with the real design points and their
// wire rows but no models: enough to build schedules.
func scheduleFixture(t *testing.T) *fixture {
	t.Helper()
	cfgs := space.Enumerate()
	ds, err := space.BuildDataset(cfgs, make([]float64, len(cfgs)))
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{}
	for i := 0; i < ds.Len(); i++ {
		b, err := json.Marshal(wireRow(ds.Row(i)))
		if err != nil {
			t.Fatal(err)
		}
		fx.rows = append(fx.rows, ds.Row(i))
		fx.rowJSON = append(fx.rowJSON, b)
	}
	return fx
}

// scheduleHash digests everything a schedule would send.
func scheduleHash(sched []item) string {
	h := sha256.New()
	var buf [8]byte
	for i := range sched {
		it := &sched[i]
		for _, v := range []int64{int64(it.due), int64(it.model), int64(it.row), int64(it.n)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		h.Write(it.body)
	}
	return string(h.Sum(nil))
}

func TestScheduleIsSeeded(t *testing.T) {
	fx := scheduleFixture(t)
	for name, tf := range servingTraffic {
		a := scheduleHash(buildSchedule(fx, tf, 7, 2*time.Second))
		b := scheduleHash(buildSchedule(fx, tf, 7, 2*time.Second))
		c := scheduleHash(buildSchedule(fx, tf, 8, 2*time.Second))
		if a != b {
			t.Errorf("%s: the same seed gave two different schedules", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestScheduleBodies(t *testing.T) {
	fx := scheduleFixture(t)
	for name, tf := range servingTraffic {
		sched := buildSchedule(fx, tf, 3, 5*time.Second)
		seen := map[*byte]bool{}
		reloads := 0
		for i := range sched {
			it := &sched[i]
			if i > 0 && it.due < sched[i-1].due {
				t.Fatalf("%s: item %d is due before item %d", name, i, i-1)
			}
			if it.reload() {
				reloads++
				continue
			}
			if seen[&it.body[0]] {
				t.Fatalf("%s: item %d reuses another item's body", name, i)
			}
			seen[&it.body[0]] = true
			// The body is what encoding the request with encoding/json gives.
			req := serve.PredictRequest{Model: fixtureModels[it.model].name}
			if it.n == 1 {
				req.Row = wireRow(fx.rows[it.row])
			} else {
				for j := 0; j < it.n; j++ {
					req.Rows = append(req.Rows, wireRow(fx.rows[it.row+j]))
				}
			}
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if string(it.body) != string(want) {
				t.Fatalf("%s: item %d body\n%s\nwant\n%s", name, i, it.body, want)
			}
		}
		wantReloads := 0
		if tf.reloadEvery > 0 {
			wantReloads = int((5*time.Second - 1) / tf.reloadEvery)
		}
		if reloads != wantReloads {
			t.Errorf("%s: %d reloads, want %d", name, reloads, wantReloads)
		}
	}
}

func TestSweepScansInEnumerationOrder(t *testing.T) {
	fx := scheduleFixture(t)
	tf := servingTraffic["sweep_reload"]
	perPass := len(fx.rows) / tf.rowsPerBody
	var prev *item
	for _, it := range buildSchedule(fx, tf, 5, 3*time.Second) {
		if it.reload() {
			continue
		}
		if prev != nil {
			next := (prev.model*perPass + prev.row/tf.rowsPerBody + 1) % (len(fixtureModels) * perPass)
			if got := it.model*perPass + it.row/tf.rowsPerBody; got != next {
				t.Fatalf("body (model %d, row %d) follows (model %d, row %d)", it.model, it.row, prev.model, prev.row)
			}
		}
		prev = &it
	}
}

// fakeClock jumps to each wake-up time plus a fixed overshoot, and
// advances by each request's cost while the request runs.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Duration
	overshoot time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t + c.overshoot
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestLatencyOrigin(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{overshoot: ms}
	sched := []item{{due: 10 * ms}, {due: 12 * ms}, {due: 40 * ms}}
	out := make([]timing, len(sched))
	drive(context.Background(), sched, 1, clk, func(context.Context, int) error { clk.advance(5 * ms); return nil }, out)
	want := []timing{
		// Idle sender: timed from the actual send, 1ms after its due time;
		// the overshoot is reported as late, not as latency.
		{latency: 5 * ms, late: ms},
		// The sender was busy until 16ms, past the 12ms due time: timed
		// from the due time, so the backlog counts.
		{latency: 9 * ms, backlogged: true},
		{latency: 5 * ms, late: ms},
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("request %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
}
