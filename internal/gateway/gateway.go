// Package gateway is the replicated-serving front tier behind
// cmd/perfpredgw: an HTTP proxy that fans /v1/predict traffic across N
// perfpredd replicas. It exists because predictor throughput — not model
// cost — bounds how fast a design space can be explored; one daemon
// tops out at one admission queue, while the gateway scales the same
// bit-exact serving path horizontally.
//
// The tier is built from four cooperating mechanisms:
//
//   - Cache-affine routing: requests are keyed by rendezvous hashing
//     over (model, row contents) using the predcache row hash, so
//     identical design points always land on the same replica and that
//     replica's prediction cache stays hot. Rendezvous scoring means a
//     replica ejection only moves the keys it owned; every other key
//     keeps its cache-warm home.
//   - Health-checked replicas: active /healthz probes plus passive
//     transport-failure signals drive a per-replica state machine
//     (healthy → ejected after FailThreshold consecutive failures,
//     readmitted after ReadmitThreshold consecutive probe successes,
//     with deterministic doubling backoff between probes to a down
//     replica). Timing is read through the faultinject clock so chaos
//     runs observe reproducible timestamps.
//   - Synchronous retry down the rendezvous order: each predict runs
//     in its handler goroutine. The first healthy replica is the
//     primary; a transport failure (a killed replica) strikes it and
//     retries on the next healthy replica in order, so a replica crash
//     mid-request loses nothing. Every call to a replica goes through
//     one helper, which never strikes a replica for a failure the
//     caller caused by leaving or running out of time.
//   - Bounded in-flight: each replica carries a gateway-side in-flight
//     cap as an overload backstop; replica-side sheds (429 with a
//     queue-pressure Retry-After) pass through to the client untouched.
//
// The gateway never re-encodes a prediction: request bodies are
// forwarded byte-for-byte and responses are relayed byte-for-byte, so
// every 200 through the gateway is bit-identical to asking the replica
// — and therefore to offline core.Predictor.PredictRowsInto scoring,
// the invariant the chaos harness enforces end to end.
package gateway

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/obs"
	"perfpred/internal/serve"
)

// Config configures a gateway.
type Config struct {
	// Replicas are the upstream perfpredd addresses (host:port).
	Replicas []string
	// ProbeInterval spaces active health probes to a healthy replica;
	// it is also the initial backoff to an ejected one. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// MaxProbeBackoff caps the doubling probe backoff to an ejected
	// replica. Default 8×ProbeInterval.
	MaxProbeBackoff time.Duration
	// FailThreshold ejects a replica after this many consecutive
	// failures (probe or transport). Default 2.
	FailThreshold int
	// ReadmitThreshold readmits an ejected replica after this many
	// consecutive probe successes. Default 2.
	ReadmitThreshold int
	// MaxInFlight caps concurrent requests per replica at the gateway; a
	// request whose routed replica is at the cap is shed with 429. The
	// cap is a backstop — the replica's own admission queue is the
	// primary shedding point. Default 256.
	MaxInFlight int
	// Deprecated: must be zero; kept only so bench/'s config literal
	// compiles. New rejects any other value.
	HedgeDelay time.Duration
	// RequestTimeout caps one proxied predict end to end (all attempts
	// included). Default 15s.
	RequestTimeout time.Duration
	// Transport overrides the upstream HTTP transport (tests inject
	// failure shapes); nil uses a pooled default.
	Transport http.RoundTripper
	// Metrics is the registry to record into; nil creates a private one.
	Metrics *obs.Registry
}

// DefaultConfig returns the gateway's defaults: the values New fills
// into zero fields, and perfpredgw's flag defaults. MaxProbeBackoff is
// left zero because its default follows ProbeInterval.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		MaxInFlight:      256,
		RequestTimeout:   15 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 8 * c.ProbeInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = d.ReadmitThreshold
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	return c
}

// metrics bundles the registry entries the gateway records into,
// resolved once at startup (the same pattern internal/serve uses).
type metrics struct {
	reg        *obs.Registry
	requests   *obs.Counter
	retries    *obs.Counter
	shed       *obs.Counter
	errors     *obs.Counter
	ejects     *obs.Counter
	readmits   *obs.Counter
	probes     *obs.Counter
	probeFails *obs.Counter
	faults     *obs.Counter
	latency    *obs.Histogram
	upstream   *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		reg:        reg,
		requests:   reg.Counter(obs.MetricGatewayRequests),
		retries:    reg.Counter(obs.MetricGatewayRetries),
		shed:       reg.Counter(obs.MetricGatewayShed),
		errors:     reg.Counter(obs.MetricGatewayErrors),
		ejects:     reg.Counter(obs.MetricGatewayEjects),
		readmits:   reg.Counter(obs.MetricGatewayReadmits),
		probes:     reg.Counter(obs.MetricGatewayProbes),
		probeFails: reg.Counter(obs.MetricGatewayProbeFailures),
		faults:     reg.Counter(obs.MetricGatewayFaults),
		latency:    reg.Histogram(obs.MetricGatewayLatency),
		upstream:   reg.Histogram(obs.MetricGatewayUpstream),
	}
}

// Gateway fronts a set of serving replicas.
type Gateway struct {
	cfg      Config
	reps     []*replica
	met      *metrics
	client   *http.Client
	mux      *http.ServeMux
	started  time.Time
	addr     atomic.Value // string; bound listen address
	draining atomic.Bool
	inflight sync.WaitGroup // live predict dispatches
	stop     chan struct{}  // closes the probe loops
	probeWG  sync.WaitGroup
	rr       atomic.Uint64 // round-robin cursor for non-affine proxying
	// fi and clock come from the fault injector active at construction
	// (the no-op singleton in production — see internal/serve.Batcher).
	fi    *faultinject.Injector
	clock faultinject.Clock
}

// New builds a gateway over cfg.Replicas and starts one health-probe
// loop per replica. Replicas start healthy (the first failed probe or
// request corrects optimism within a probe interval); call Close to
// drain.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	if cfg.HedgeDelay != 0 {
		return nil, fmt.Errorf("gateway: HedgeDelay %v: hedging was removed; leave it zero", cfg.HedgeDelay)
	}
	seen := map[string]bool{}
	for _, addr := range cfg.Replicas {
		if addr == "" {
			return nil, fmt.Errorf("gateway: empty replica address")
		}
		if seen[addr] {
			return nil, fmt.Errorf("gateway: duplicate replica address %q", addr)
		}
		seen[addr] = true
	}
	fi := faultinject.Active()
	g := &Gateway{
		cfg:   cfg,
		met:   newMetrics(cfg.Metrics),
		stop:  make(chan struct{}),
		fi:    fi,
		clock: fi.Clock(),
	}
	g.started = g.clock.Now()
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConns:        4 * cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		}
	}
	g.client = &http.Client{Transport: tr}
	for i, addr := range cfg.Replicas {
		g.reps = append(g.reps, newReplica(i, addr))
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/predict", g.handlePredict)
	g.mux.HandleFunc("GET /v1/models", g.proxyAny)
	g.mux.HandleFunc("GET /v1/report", g.proxyAny)
	g.mux.HandleFunc("POST /admin/reload", g.handleReload)
	g.mux.HandleFunc("GET /gw/report", g.handleReport)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	mh := obs.MetricsHandler(g.met.reg)
	g.mux.Handle("/metrics", mh)
	g.mux.Handle("/debug/", mh)
	for _, rep := range g.reps {
		g.probeWG.Add(1)
		go g.probeLoop(rep)
	}
	return g, nil
}

// Handler returns the gateway's HTTP surface.
func (g *Gateway) Handler() http.Handler { return g.mux }

// MetricsRegistry exposes the registry backing /metrics.
func (g *Gateway) MetricsRegistry() *obs.Registry { return g.met.reg }

// SetAddr records the bound listen address for reports.
func (g *Gateway) SetAddr(addr string) { g.addr.Store(addr) }

// Close drains the gateway, mirroring the daemon's SIGTERM contract:
// new predicts are refused with 503, every in-flight dispatch is
// answered, and the health-probe loops stop. Call after the HTTP server
// has stopped accepting requests.
func (g *Gateway) Close() {
	if !g.draining.CompareAndSwap(false, true) {
		return
	}
	close(g.stop)
	g.inflight.Wait()
	g.probeWG.Wait()
}

// Report snapshots the gateway's lifetime into a GatewayReport.
func (g *Gateway) Report() *obs.GatewayReport {
	addr, _ := g.addr.Load().(string)
	reps := make([]obs.ReplicaReport, len(g.reps))
	for i, rep := range g.reps {
		reps[i] = rep.report()
	}
	return obs.BuildGatewayReport(obs.GatewayMeta{
		Addr:     addr,
		Replicas: reps,
		Uptime:   max(g.clock.Since(g.started), 0), // a skewed chaos clock may run backwards
	}, g.met.reg)
}

// healthyCount counts replicas currently routable.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, rep := range g.reps {
		if rep.isHealthy() {
			n++
		}
	}
	return n
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := g.healthyCount()
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy replicas"
	}
	writeJSON(w, status, map[string]any{
		"status": state, "healthy": healthy, "replicas": len(g.reps),
	})
}

func (g *Gateway) handleReport(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Report())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	serve.EncodeJSON(w, v) //nolint:errcheck // best-effort: client may have gone
}

func writeError(w http.ResponseWriter, status int, err error) {
	msg := strings.TrimPrefix(err.Error(), "gateway: ")
	writeJSON(w, status, map[string]string{"error": msg})
}

// probeLoop actively health-checks one replica until Close. The delay
// sequence is deterministic: ProbeInterval while healthy, then
// ProbeInterval·2ᵏ (capped at MaxProbeBackoff) for the k-th consecutive
// probe to an ejected replica, resetting on readmission.
func (g *Gateway) probeLoop(rep *replica) {
	defer g.probeWG.Done()
	for {
		t := time.NewTimer(rep.probeDelay(g.cfg.ProbeInterval))
		select {
		case <-g.stop:
			t.Stop()
			return
		case <-t.C:
		}
		g.probe(rep)
	}
}

// probe runs one active health check and feeds the result into the
// replica's state machine.
func (g *Gateway) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	var err error
	// Probe fault point: a forced error fails the probe as if the
	// replica were unreachable, so chaos runs can eject a perfectly
	// healthy replica and exercise readmission.
	if fired, ferr := g.fi.Hit(ctx, faultinject.GatewayHealthProbe); fired {
		g.met.faults.Inc()
		err = ferr
	}
	if err == nil {
		err = g.probeOnce(ctx, rep)
	}
	g.recordProbe(rep, err == nil)
}

func (g *Gateway) probeOnce(ctx context.Context, rep *replica) error {
	res, err := g.send(ctx, rep, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("gateway: %s /healthz answered %d", rep.addr, res.status)
	}
	return nil
}
