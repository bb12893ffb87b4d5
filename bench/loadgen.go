package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// clock is the generator's time source; tests substitute a fake one to
// pin the latency-origin rule.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock measures from origin on the monotonic clock.
type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// timing is one request's measurement.
type timing struct {
	latency time.Duration
	// late is how far past the due time an idle sender actually sent:
	// timer overshoot, the generator's fault, kept out of latency.
	late       time.Duration
	backlogged bool // the sender was still busy when the request fell due
	failed     bool
}

// drive sends every scheduled request open-loop from senders goroutines
// sharing one queue, writing out[i] for sched[i]. A request whose sender
// was still busy when it fell due is timed from its due time, so a stall
// is charged to every request queued behind it; otherwise it is timed
// from the actual send. Once ctx is done no further request is sent.
func drive(ctx context.Context, sched []item, senders int, clk clock, send func(ctx context.Context, i int) error, out []timing) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				t := &out[i]
				due := sched[i].due
				origin := due
				if clk.now() < due {
					clk.sleepUntil(due)
					origin = clk.now()
					t.late = origin - due
				} else {
					t.backlogged = true
				}
				t.failed = send(ctx, i) != nil
				t.latency = clk.now() - origin
			}
		}()
	}
	wg.Wait()
}

// client sends schedule items to a topology and checks every answer
// bit for bit against the fixture's goldens.
type client struct {
	http       *http.Client
	fx         *fixture
	sched      []item
	predictURL string
	reloadURL  string
	tr         *tracer // nil when untraced

	replicaIdx map[string]int8 // replica address → index
	replicaOf  []int8          // replica that answered each request; -1 if unknown

	errOnce sync.Once
}

func newClient(hc *http.Client, fx *fixture, sched []item, topo *topology, tf traffic, tr *tracer) *client {
	c := &client{
		http:       hc,
		fx:         fx,
		sched:      sched,
		predictURL: topo.gwURL + "/v1/predict",
		reloadURL:  topo.repURL[0] + "/admin/reload",
		tr:         tr,
		replicaIdx: map[string]int8{},
		replicaOf:  make([]int8, len(sched)),
	}
	if tf.direct {
		c.predictURL = topo.repURL[0] + "/v1/predict"
	}
	for i := range c.replicaOf {
		c.replicaOf[i] = -1
	}
	for i, addr := range topo.repAddr {
		c.replicaIdx[addr] = int8(i)
	}
	return c
}

// send performs sched[i] and returns an error if it failed in any way:
// transport, status, or an answer that differs from the goldens.
func (c *client) send(ctx context.Context, i int) error {
	it := &c.sched[i]
	err := c.do(ctx, i, it)
	if err != nil {
		c.errOnce.Do(func() { logf("request %d failed (first failure shown): %v", i, err) })
	}
	return err
}

func (c *client) do(ctx context.Context, i int, it *item) error {
	url, body := c.predictURL, io.Reader(bytes.NewReader(it.body))
	if it.reload() {
		url, body = c.reloadURL, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var sp *span
	if c.tr != nil {
		sp = c.tr.begin("client", int64(i), 0)
		req.Header.Set(spanHeader, sp.ref())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if sp != nil {
		c.tr.end(sp)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if idx, ok := c.replicaIdx[resp.Header.Get(gateway.HeaderReplica)]; ok {
		c.replicaOf[i] = idx
	}
	if it.reload() {
		var rr serve.ReloadResponse
		if err := json.Unmarshal(b, &rr); err != nil || rr.Generation < 2 {
			return fmt.Errorf("bad reload answer %q", b)
		}
		return nil
	}
	return c.check(it, b)
}

// check compares one predict answer with the goldens, bit for bit.
func (c *client) check(it *item, b []byte) error {
	var resp struct {
		N           int       `json:"n"`
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if resp.N != it.n || len(resp.Predictions) != it.n {
		return fmt.Errorf("answer has %d predictions (n=%d) for %d rows", len(resp.Predictions), resp.N, it.n)
	}
	golden := c.fx.golden[it.model][it.row : it.row+it.n]
	for j, y := range resp.Predictions {
		if math.Float64bits(y) != math.Float64bits(golden[j]) {
			return fmt.Errorf("%s row %d: served %v, golden %v",
				fixtureModels[it.model].name, it.row+j, y, golden[j])
		}
	}
	return nil
}

// affinity is the share of single-row requests answered by the replica
// that answered most of the requests for the same (model, row) key; 0
// when no answer named a replica.
func (c *client) affinity(from int) float64 {
	counts := map[int][]int{} // key → answers per replica
	total := 0
	for i := from; i < len(c.sched); i++ {
		it := &c.sched[i]
		if it.n != 1 || c.replicaOf[i] < 0 {
			continue
		}
		key := it.model*len(c.fx.rows) + it.row
		if counts[key] == nil {
			counts[key] = make([]int, len(c.replicaIdx))
		}
		counts[key][c.replicaOf[i]]++
		total++
	}
	modal := 0
	for _, per := range counts {
		best := 0
		for _, n := range per {
			best = max(best, n)
		}
		modal += best
	}
	return ratio(float64(modal), float64(total))
}
