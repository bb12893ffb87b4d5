// Package loadtest is the chaos/soak harness for the serving stack: it
// replays a deterministic, seed-derived request schedule (mixed models,
// malformed payloads, client deadlines, concurrent reloads) against an
// in-process serving tier of N replicas — one bare daemon at N=1, a
// gateway in front of them at N≥2 — optionally with the faultinject
// layer armed so batch flushes stall past request deadlines, admissions
// fail, and reloads tear, and checks the serving invariants that must
// hold under any interleaving:
//
//   - every scheduled request gets exactly one terminal response; the
//     batcher never drops work without shedding it as a 429;
//   - every 200 bit-matches offline core.Predictor.PredictRowsInto
//     scoring of the same artifact (Go's JSON float encoding round-trips
//     float64 exactly, so "bit-match" means ==, not a tolerance);
//   - malformed payloads map to their exact client-error codes no
//     matter the load — never a 5xx, never a queue slot;
//   - each replica's registry generation only moves forward and its
//     model set is never partial, even while reloads race requests and
//     each other;
//   - the tier's shed counters equal the 429s observed on the wire, and
//     every final report is internally consistent;
//   - each replica's prediction cache balances (hits + misses ==
//     lookups) and actually hits on the schedule's
//     duplicate-heavy class, and after the run a generation-boundary
//     epilogue — retrain one model, swap its artifact, reload every
//     replica, re-probe the hot rows against the new artifact's goldens
//     — proves no cache hit crosses a reload;
//   - the process heap stays bounded: over a replay long enough to
//     judge, the last quarter's peak HeapInuse stays within
//     heapGrowthBound of the first quarter's.
//
// Everything stochastic — request times, burst placement, payload
// classes — derives from Config.Seed, and faults fire on fixed
// per-point cadences, so any failure reproduces from the single seed
// printed in the report.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

// Config sizes one chaos run.
type Config struct {
	// Seed derives the schedule and the fixture models. Same seed, same
	// schedule; faults fire on fixed per-point cadences.
	Seed int64
	// Duration is the schedule horizon, which also sizes the schedule
	// (~150 predict requests/s, minimum 200). Default 2s.
	Duration time.Duration
	// Faults arms the chaos fault plans (stalled batch flushes past the
	// request deadline, forced admission errors, failing reloads and
	// artifact loads, stalled cache lookups). When false the same
	// schedule replays against a clean daemon.
	Faults bool
	// Replicas is the number of in-process daemons. 0 or 1 runs one bare
	// daemon the client talks to directly; ≥ 2 puts an internal/gateway
	// front tier before them and adds the gateway invariants: hot
	// single-row requests land on exactly one replica (cache affinity),
	// the gateway's own report is consistent, and its retry accounting
	// reconciles with what clients observed on the wire.
	Replicas int
	// ReplicaKill (≥ 2 replicas) kills one seed-chosen replica's
	// listener at ~35% of the horizon and restarts it at ~65%, verifying
	// no request is lost across the crash: the gateway must eject the
	// replica, retry its in-flight work on survivors, and readmit it
	// after restart. Affinity is then allowed to spread to at most two
	// replicas per key (the home and its rendezvous fallback).
	ReplicaKill bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// requests is the number of predict requests to schedule: ~150/s of
// Duration, at least 200.
func (c Config) requests() int {
	return max(int(c.Duration.Seconds()*150), 200)
}

// clientWorkers bounds concurrent in-flight client requests. It exceeds
// the schedule's burst size, so bursts actually overflow the admission
// queue.
const clientWorkers = 64

// requestTimeout is the daemon's per-request deadline: 60ms with faults
// armed, so injected flush stalls expire queued requests, 2s otherwise.
func (c Config) requestTimeout() time.Duration {
	if c.Faults {
		return 60 * time.Millisecond
	}
	return 2 * time.Second
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Injected fault errors. They are deliberately distinct sentinels so a
// chaos run can tell its own injected failures from organic ones.
var (
	errInjectedAdmit    = errors.New("loadtest: injected admission fault")
	errInjectedReload   = errors.New("loadtest: injected reload fault")
	errInjectedArtifact = errors.New("loadtest: injected artifact-read fault")
)

// chaosPlans are the fault plans a Faults run arms: every faultinject
// point, gateway.route only when a gateway fronts the tier. Fixed Every
// cadences guarantee each fault class actually fires within a short
// run: every 4th batch flush stalls past the request deadline (expiring
// whatever is queued behind it), every 25th admission fails outright,
// every 3rd reload attempt is rejected at the reload point and every
// 7th artifact read fails (tearing reloads mid-catalog — which the
// registry must absorb without serving a torn state). The artifact
// cadence starts beyond the initial three loads so daemon startup
// always succeeds.
//
// The cache-lookup plan is latency-only: every 6th lookup stalls for a
// few batch lifetimes, widening the window for evictions and reloads to
// race rows already probed — the cache must absorb the stall without
// changing a single bit. A gateway-fronted tier additionally arms
// routing latency jitter, a client-invisible front-tier fault; real
// ejection comes from the kill/restart choreography, so the affinity
// invariant stays sharp.
func chaosPlans(requestTimeout time.Duration, replicas int) map[faultinject.Point]faultinject.Plan {
	// Artifact-read faults must start beyond the initial catalog loads
	// (3 fixture models per daemon) so every daemon boots; with N
	// replicas sharing one injector that floor scales to 3N.
	plans := map[faultinject.Point]faultinject.Plan{
		faultinject.ServeBatchFlush:   {Every: 4, Latency: requestTimeout + requestTimeout/2},
		faultinject.ServeAdmit:        {Every: 25, Err: errInjectedAdmit},
		faultinject.ServeReload:       {Every: 3, Err: errInjectedReload},
		faultinject.ServeArtifactLoad: {Every: uint64(3*replicas) + 4, Err: errInjectedArtifact},
		faultinject.ServeCacheLookup:  {Every: 6, Latency: 3 * time.Millisecond},
	}
	if replicas >= 2 {
		plans[faultinject.GatewayRoute] = faultinject.Plan{Every: 31, Latency: time.Millisecond}
	}
	return plans
}

// outcome is the terminal result of one scheduled event.
type outcome struct {
	ev       Event
	status   int // HTTP status; 0 = no response
	timedOut bool
	err      string
	preds    []float64 // parsed predictions for 200s
	replica  string    // gateway-fronted: X-Perfpred-Replica of the answer
	route    string    // gateway-fronted: X-Perfpred-Route of the answer
}

// harness is one run's live state.
type harness struct {
	cfg    Config
	fx     *fixture
	top    *topology
	client *http.Client
	sched  *Schedule
	outs   []outcome

	mu  sync.Mutex // guards led.catalogs, led.acks and led.heap; led.epi is the main goroutine's
	led ledger
}

// Run executes one chaos/soak run and returns its invariant report.
// The returned error covers harness failures (cannot train, bind,
// marshal); invariant violations are reported in Report.Violations so
// callers can persist the full evidence before failing.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("loadtest: negative replica count %d", cfg.Replicas)
	}
	if cfg.ReplicaKill && cfg.Replicas < 2 {
		return nil, errors.New("loadtest: ReplicaKill needs at least 2 replicas")
	}
	n := max(cfg.Replicas, 1)
	start := time.Now()

	dir, err := os.MkdirTemp("", "perfpredload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg.logf("training fixture models (seed %d)", cfg.Seed)
	fx, err := buildFixture(dir, cfg.Seed, 192)
	if err != nil {
		return nil, err
	}

	sched := BuildSchedule(cfg.Seed, cfg.requests(), cfg.Duration, fx.models, len(fx.rows))

	// Arm faults before constructing the replicas and gateway: batcher,
	// server and gateway snapshot the active injector at construction.
	var inj *faultinject.Injector
	if cfg.Faults {
		inj = faultinject.New(chaosPlans(cfg.requestTimeout(), n))
		restore := faultinject.Activate(inj)
		defer restore()
	}

	top, err := startTopology(cfg, dir, n)
	if err != nil {
		return nil, err
	}
	if cfg.ReplicaKill {
		top.scheduleKill(cfg.Seed, cfg.Duration)
	}
	h := &harness{
		cfg: cfg,
		fx:  fx,
		top: top,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        2 * clientWorkers,
			MaxIdleConnsPerHost: 2 * clientWorkers,
		}},
		sched: sched,
		outs:  make([]outcome, len(sched.Events)),
		led:   ledger{catalogs: map[string][]catalog{}, acks: map[string]int{}},
	}

	cfg.logf("replaying %d events over %v against %s (%d replicas, kill=%v)",
		len(sched.Events), cfg.Duration, top.baseURL, n, cfg.ReplicaKill)
	pollDone := make(chan struct{})
	go h.pollCatalog(pollDone)
	go h.sampleHeap(pollDone)
	h.replay()
	close(pollDone)

	// The generation-boundary epilogue runs while the tier (and the
	// fault injector) is still live: probe warm hot rows,
	// retrain-swap-reload one model, probe again against the new
	// artifact's goldens.
	cfg.logf("running generation-boundary epilogue")
	h.runEpilogue()

	// Drain the whole tier; reports are snapshotted after the drain so
	// every counter has settled.
	if err := top.teardown(); err != nil {
		return nil, fmt.Errorf("loadtest: teardown: %w", err)
	}
	rep := h.report(inj, time.Since(start))
	cfg.logf("run complete: %d violations", len(rep.Violations))
	return rep, nil
}

// replay dispatches every scheduled event at its offset, bounded by
// clientWorkers concurrent in-flight calls, and waits for all outcomes.
func (h *harness) replay() {
	var wg sync.WaitGroup
	sem := make(chan struct{}, clientWorkers)
	start := time.Now()
	for i := range h.sched.Events {
		ev := h.sched.Events[i]
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, ev Event) {
			defer wg.Done()
			defer func() { <-sem }()
			if ev.Reload {
				h.outs[i] = h.runReload(ev)
			} else {
				h.outs[i] = h.runPredict(ev)
			}
		}(i, ev)
	}
	wg.Wait()
}

// runReload executes one reload event. AdminHTTP posts to the front's
// /admin/reload — a bare replica's own endpoint or the gateway's
// fan-out; otherwise every replica's Server.Reload is called directly,
// the path a SIGHUP to each daemon takes. Either way each replica's
// successful reloads land in the acknowledgement census the generation
// check judges by.
func (h *harness) runReload(ev Event) outcome {
	out := outcome{ev: ev, status: http.StatusOK}
	if !ev.AdminHTTP {
		for _, r := range h.top.reps {
			if _, err := r.srv.Reload(); err != nil {
				out.status, out.err = http.StatusInternalServerError, err.Error()
			} else {
				h.ack(r.addr)
			}
		}
		return out
	}
	resp, err := h.client.Post(h.top.baseURL+"/admin/reload", "application/json", nil)
	if err != nil {
		return outcome{ev: ev, err: err.Error()}
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	var body struct {
		gateway.ReloadFanout
		serve.ReloadResponse
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return outcome{ev: ev, err: "decoding reload response: " + err.Error()}
	}
	// A gateway answers with per-replica results; a bare replica's
	// ReloadResponse acknowledges for itself, the tier's only replica.
	acks := body.Replicas
	if body.Generation > 0 {
		acks = []gateway.ReloadResult{{Addr: h.top.reps[0].addr}}
	}
	for _, a := range acks {
		if a.Error == "" {
			h.ack(a.Addr)
		}
	}
	return out
}

// ack records one acknowledged reload of the replica at addr.
func (h *harness) ack(addr string) {
	h.mu.Lock()
	h.led.acks[addr]++
	h.mu.Unlock()
}

// runPredict executes one predict event and parses its terminal result.
func (h *harness) runPredict(ev Event) outcome {
	out := outcome{ev: ev}
	body, err := json.Marshal(h.requestBody(ev))
	if err != nil {
		out.err = "marshal: " + err.Error()
		return out
	}
	ctx := context.Background()
	if ev.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ev.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.top.baseURL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			out.timedOut = true
		}
		out.err = err.Error()
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	out.replica = resp.Header.Get(gateway.HeaderReplica)
	out.route = resp.Header.Get(gateway.HeaderRoute)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return out
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		// A response abandoned mid-body by the client deadline is a
		// client timeout, not a protocol violation.
		if ev.Timeout > 0 {
			out.status, out.timedOut, out.err = 0, true, err.Error()
			return out
		}
		out.err = "decoding predict response: " + err.Error()
		out.status = 0
		return out
	}
	out.preds = pr.Predictions
	return out
}

// requestBody builds the wire body for one predict event, applying its
// payload malformation.
func (h *harness) requestBody(ev Event) *serve.PredictRequest {
	rows := make([][]any, len(ev.RowIdxs))
	for i, idx := range ev.RowIdxs {
		rows[i] = serve.WireRow(h.fx.rows[idx])
	}
	switch ev.Payload {
	case PayloadBadWidth:
		rows[0] = append(rows[0], 1.0)
	case PayloadBadType:
		rows[0][0] = "not-a-number" // schema field 0 is numeric
	case PayloadUnknownCategory:
		rows[0][3] = "alien" // schema field 3 is the mapped categorical
	}
	req := &serve.PredictRequest{Model: ev.Model}
	if ev.Single && len(rows) == 1 {
		req.Row = rows[0]
	} else {
		req.Rows = rows
	}
	return req
}

// pollCatalog samples /v1/models until done closes, recording each
// answering replica's generation and model set for the checker — a torn
// catalog (some models missing mid-reload) or a generation moving
// backwards is a violation no matter when it is observed.
func (h *harness) pollCatalog(done <-chan struct{}) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		resp, err := h.client.Get(h.top.baseURL + "/v1/models")
		if err != nil {
			continue // transient during shutdown races; replay gating prevents real loss
		}
		if resp.StatusCode != http.StatusOK {
			// A 502 while a killed replica is being ejected is transport
			// weather, not catalog state.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			continue
		}
		// Replicas reload independently, so observations are kept per
		// answering replica (the gateway names it; a bare replica is "").
		replica := resp.Header.Get(gateway.HeaderReplica)
		var mr serve.ModelsResponse
		err = json.NewDecoder(resp.Body).Decode(&mr)
		resp.Body.Close()
		if err != nil {
			continue
		}
		c := catalog{gen: mr.Generation, models: make([]string, len(mr.Models))}
		for i, m := range mr.Models {
			c.models[i] = m.Name
		}
		// An observation equal to the replica's last one adds no
		// evidence; dropping it keeps the ledger from growing with the
		// length of the run.
		h.mu.Lock()
		seq := h.led.catalogs[replica]
		if n := len(seq); n == 0 || seq[n-1].gen != c.gen || !slices.Equal(seq[n-1].models, c.models) {
			h.led.catalogs[replica] = append(seq, c)
		}
		h.mu.Unlock()
	}
}

// sampleHeap records runtime.MemStats.HeapInuse into the ledger when the
// replay starts and then once a second until done closes. The whole tier
// runs in this process, so the samples cover every replica, the gateway
// and the harness itself.
func (h *harness) sampleHeap(done <-chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		runtime.ReadMemStats(&ms)
		h.mu.Lock()
		h.led.heap = append(h.led.heap, ms.HeapInuse)
		h.mu.Unlock()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}
