package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// phaseResult is what one serving phase measured.
type phaseResult struct {
	attempted, failed int64
	lat               []float64 // measured-phase predict latencies in ms, ascending
	rows              int       // rows the measured-phase predict requests asked for
	// Process CPU microseconds, allocations and allocated KiB per row over
	// the measured phase.
	cpuUS, allocs, allocKiB float64
	elapsed                 time.Duration // from the phase start to the last answer
	late                    []float64     // idle senders' wake-up overshoot in ms
	backlogged              int
	layers                  map[string]float64 // traced phases only
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// runServing runs one serving workload. Untraced, it times the set-up,
// then one warm-up and measured phase, and reports the end-to-end
// metrics. Traced, it runs an untraced phase for reference and then a
// traced phase on a fresh topology, and reports the per-layer metrics.
func runServing(ctx context.Context, name string, rc runConfig, traced bool) (outcome, error) {
	tf := servingTraffic[name]
	if !traced {
		return servingEndToEnd(ctx, name, tf, rc)
	}
	fx, err := rc.fixture()
	if err != nil {
		return outcome{}, err
	}
	ref, err := phaseOnce(ctx, fx, tf, rc, nil)
	if err != nil {
		return outcome{}, err
	}
	describe(name+" untraced", ref)
	tr := newTracer()
	ph, err := phaseOnce(ctx, fx, tf, rc, tr)
	if err != nil {
		return outcome{}, err
	}
	describe(name+" traced", ph)
	values := ph.layers
	values["client.latency_ms.p50"] = quantile(ref.lat, 0.5)
	values["client.latency_ms.p90"] = quantile(ref.lat, 0.9)
	values["process.cpu_us_per_row"] = ref.cpuUS
	values["trace.overhead"] = ratio(quantile(ph.lat, 0.5), quantile(ref.lat, 0.5))
	for _, m := range dseLayerMetrics {
		values[m] = 0 // the DSE layers are not on the serving path
	}
	if rc.spans != "" {
		path := filepath.Join(rc.spans, "spans-"+name+".json")
		if err := tr.writeFile(path); err != nil {
			return outcome{}, fmt.Errorf("writing spans: %w", err)
		}
		logf("%s: wrote %d spans to %s", name, len(tr.spans), path)
	}
	return outcome{
		attempted: ref.attempted + ph.attempted,
		failed:    ref.failed + ph.failed,
		values:    values,
	}, nil
}

// servingEndToEnd sets up several times, each time building a fixture
// and booting a topology up to its first 200, and runs the phase on the
// last set-up.
func servingEndToEnd(ctx context.Context, name string, tf traffic, rc runConfig) (outcome, error) {
	var fx *fixture
	var topo *topology
	setupS := make([]float64, setups)
	for k := range setupS {
		if topo != nil {
			if err := topo.close(); err != nil {
				return outcome{}, err
			}
		}
		start := time.Now()
		var err error
		if fx, err = rc.fixture(); err != nil {
			return outcome{}, err
		}
		if topo, err = bootReady(ctx, fx, tf, nil); err != nil {
			return outcome{}, err
		}
		setupS[k] = time.Since(start).Seconds()
	}
	ph, err := runPhase(ctx, fx, topo, tf, rc, nil)
	if err != nil {
		topo.close() //nolint:errcheck // already failing
		return outcome{}, err
	}
	describe(name, ph)
	values := map[string]float64{
		"setup_s":          median(setupS),
		"allocs_per_row":   ph.allocs,
		"alloc_kb_per_row": ph.allocKiB,
	}
	o := outcome{attempted: ph.attempted, failed: ph.failed, values: values}
	values["heap_mb"] = heapMiB() // the schedule and its timings are garbage by now
	logf("%s: set-ups %v s", name, setupS)
	return o, topo.close()
}

// bootReady boots a topology and waits for its first 200 on the
// workload's entry point.
func bootReady(ctx context.Context, fx *fixture, tf traffic, tr *tracer) (*topology, error) {
	topo, err := boot(fx.dir, tr)
	if err != nil {
		return nil, err
	}
	url := topo.gwURL
	if tf.direct {
		url = topo.repURL[0]
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	if err := waitReady(ctx, hc, url+"/v1/predict", encodeBody(fx, &item{n: 1})); err != nil {
		topo.close() //nolint:errcheck // already failing
		return nil, err
	}
	return topo, nil
}

// phaseOnce boots a fresh topology, runs one phase on it and shuts it
// down.
func phaseOnce(ctx context.Context, fx *fixture, tf traffic, rc runConfig, tr *tracer) (*phaseResult, error) {
	topo, err := bootReady(ctx, fx, tf, tr)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, fx, topo, tf, rc, tr)
	if cerr := topo.close(); err == nil {
		err = cerr
	}
	return ph, err
}

// runPhase drives the warm-up and the measured phase from one schedule,
// with one sender goroutine and one connection per CPU, and measures the
// process's CPU time and allocations over the measured phase.
func runPhase(ctx context.Context, fx *fixture, topo *topology, tf traffic, rc runConfig, tr *tracer) (*phaseResult, error) {
	sched := buildSchedule(fx, tf, rc.seed, rc.warm+rc.phase)
	from := firstMeasured(sched, rc.warm)
	senders := runtime.NumCPU()
	hc := newHTTPClient(senders)
	defer hc.CloseIdleConnections()
	cl := newClient(hc, fx, sched, topo, tf, tr)
	out := make([]timing, len(sched))

	clk := wallClock{origin: time.Now()}
	var u0 usage
	var u0Err error
	started := make(chan struct{})
	go func() {
		defer close(started)
		clk.sleepUntil(rc.warm)
		u0, u0Err = readUsage()
	}()
	drive(ctx, sched, senders, clk, cl.send, out)
	<-started
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	u1, err := readUsage()
	if err == nil {
		err = u0Err
	}
	if err != nil {
		return nil, err
	}

	ph := &phaseResult{attempted: int64(len(sched)), elapsed: clk.now() - rc.warm}
	for i := range sched {
		t := &out[i]
		if t.failed {
			ph.failed++
		}
		if i < from || sched[i].reload() {
			continue
		}
		ph.rows += sched[i].n
		if t.failed {
			continue // the run is incorrect; its latency means nothing
		}
		ph.lat = append(ph.lat, float64(t.latency)/1e6)
		if t.backlogged {
			ph.backlogged++
		} else {
			ph.late = append(ph.late, float64(t.late)/1e6)
		}
	}
	sort.Float64s(ph.lat)
	ph.cpuUS, ph.allocs, ph.allocKiB = perRow(u0, u1, ph.rows)
	if tr != nil {
		if ph.layers, err = phaseLayers(ctx, fx, topo, hc, cl, from, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// phaseLayers gathers a traced phase's per-layer metrics: span self
// times, the replicas' own reports, a metrics scrape and the offline
// rungs on this phase's bodies.
func phaseLayers(ctx context.Context, fx *fixture, topo *topology, hc *http.Client, cl *client, from int, tr *tracer) (map[string]float64, error) {
	layers := tr.layers(int64(from))
	layers["gateway.affinity"] = cl.affinity(from)
	for k, v := range replicaLayers(topo) {
		layers[k] = v
	}
	scrape, err := scrapeMS(ctx, hc, topo.repURL[0]+"/metrics")
	if err != nil {
		return nil, err
	}
	layers["obs.scrape_ms"] = scrape
	r, err := rungs(ctx, fx.dir, cl.sched[from:])
	if err != nil {
		return nil, err
	}
	for k, v := range r {
		layers[k] = v
	}
	return layers, nil
}

// replicaLayers reads the serve and predcache metrics from the replicas'
// lifetime reports. Percentiles are averaged weighted by sample count;
// counts are summed.
func replicaLayers(topo *topology) map[string]float64 {
	var reqs, batches, shed, lookups, misses, hits, coalesced, evictions int64
	var qw, qwN, kern, kernN, batchRows, batchN float64
	for _, srv := range topo.srvs {
		r := srv.Report()
		reqs += r.Requests
		batches += r.Batches
		shed += r.Shed
		lookups += r.Cache.Lookups
		hits += r.Cache.Hits
		misses += r.Cache.Misses
		coalesced += r.Cache.Coalesced
		evictions += r.Cache.Evictions
		qw += r.QueueWaitSeconds.P50 * float64(r.QueueWaitSeconds.Count)
		qwN += float64(r.QueueWaitSeconds.Count)
		kern += r.KernelSeconds.P50 * float64(r.KernelSeconds.Count)
		kernN += float64(r.KernelSeconds.Count)
		batchRows += r.BatchSize.Sum
		batchN += float64(r.BatchSize.Count)
	}
	return map[string]float64{
		"serve.queue_wait_us.p50":        ratio(qw, qwN) * 1e6,
		"serve.kernel_us.p50":            ratio(kern, kernN) * 1e6,
		"serve.batch_rows.mean":          ratio(batchRows, batchN),
		"serve.batches_per_req":          ratio(float64(batches), float64(reqs)),
		"serve.shed":                     float64(shed),
		"predcache.hit_ratio":            ratio(float64(hits), float64(lookups)),
		"predcache.coalesced_ratio":      ratio(float64(coalesced), float64(misses)),
		"predcache.evictions_per_lookup": ratio(float64(evictions), float64(lookups)),
	}
}

// scrapeMS returns the median of five GETs of url, in milliseconds.
func scrapeMS(ctx context.Context, hc *http.Client, url string) (float64, error) {
	ms := make([]float64, 5)
	for i := range ms {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms), nil
}

// describe prints a phase's diagnostics, which no bound gates: tail
// percentiles with how many samples lie beyond them, the generator's
// timer overshoot and the achieved rate.
func describe(name string, ph *phaseResult) {
	n := len(ph.lat)
	beyond := func(q float64) int { return n - int(q*float64(n)+0.5) }
	sort.Float64s(ph.late)
	logf("%s: n=%d p50 %.3f p90 %.3f p99 %.3f (%d beyond) p999 %.3f (%d beyond) ms; "+
		"cpu %.1f us/row; gen_late p50 %.3f ms; backlogged %d; achieved %.0f req/s; failed %d/%d",
		name, n, quantile(ph.lat, 0.5), quantile(ph.lat, 0.9),
		quantile(ph.lat, 0.99), beyond(0.99), quantile(ph.lat, 0.999), beyond(0.999),
		ph.cpuUS, quantile(ph.late, 0.5), ph.backlogged, ratio(float64(n), ph.elapsed.Seconds()),
		ph.failed, ph.attempted)
}
