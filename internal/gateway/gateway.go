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
//   - Health-checked replicas: active /healthz probes, one every
//     ProbeInterval whatever the replica's state, plus passive
//     transport-failure signals drive a per-replica state machine
//     (healthy → ejected after FailThreshold consecutive failures,
//     readmitted after ReadmitThreshold consecutive probe successes).
//   - Synchronous retry down the rendezvous order: each predict runs
//     in its handler goroutine. The first healthy replica is the
//     primary; a transport failure (a killed replica) strikes it and
//     retries on the next healthy replica in order, so a replica crash
//     mid-request loses nothing. Ranking is allocation-free: an
//     insertion sort into a stack buffer. Every call to a replica goes
//     through one helper, which never strikes a replica for a failure
//     the caller caused by leaving or running out of time. Each attempt
//     is one RoundTrip on the pre-parsed replica URL, with no
//     http.Client, so a replica's 3xx is relayed, not followed.
//   - One shed point: each replica's admission queue. Its 429s (with
//     the replica's Retry-After) pass through to the client untouched;
//     the gateway adds no cap of its own.
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
	// ProbeInterval spaces active health probes to every replica,
	// healthy or ejected. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// FailThreshold ejects a replica after this many consecutive
	// failures (probe or transport). Default 2.
	FailThreshold int
	// ReadmitThreshold readmits an ejected replica after this many
	// consecutive probe successes. Default 2.
	ReadmitThreshold int
	// Deprecated: ignored; kept only so bench/'s config literal
	// compiles. Each replica's admission queue is the only shed point.
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
}

// Idle-connection pool of the default upstream transport.
const (
	maxIdleConnsPerReplica = 256
	maxIdleConns           = 1024
)

// DefaultConfig returns the gateway's defaults: the values New fills
// into zero fields, and perfpredgw's flag defaults.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailThreshold:    2,
		ReadmitThreshold: 2,
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
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = d.ReadmitThreshold
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	return c
}

// Gateway fronts a set of serving replicas.
type Gateway struct {
	cfg      Config
	reps     []*replica
	met      *metrics
	tr       http.RoundTripper // every upstream request's one round trip
	mux      *http.ServeMux
	started  time.Time
	addr     atomic.Value // string; bound listen address
	draining atomic.Bool
	inflight sync.WaitGroup // live predict dispatches
	stop     chan struct{}  // closes the probe loops
	probeWG  sync.WaitGroup
	rr       atomic.Uint64 // round-robin cursor for non-affine proxying
	// fi is the fault injector active at construction (the no-op
	// singleton in production — see internal/serve.Batcher).
	fi *faultinject.Injector
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
	g := &Gateway{
		cfg:     cfg,
		met:     newMetrics(),
		started: time.Now(),
		stop:    make(chan struct{}),
		fi:      faultinject.Active(),
	}
	g.tr = cfg.Transport
	if g.tr == nil {
		g.tr = &http.Transport{
			MaxIdleConns:        maxIdleConns,
			MaxIdleConnsPerHost: maxIdleConnsPerReplica,
		}
	}
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
	serve.WriteJSON(w, status, map[string]any{
		"status": state, "healthy": healthy, "replicas": len(g.reps),
	})
}

func (g *Gateway) handleReport(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, g.Report())
}

// writeError answers status with the serving tier's JSON error
// envelope, the package's "gateway: " prefix stripped from the message.
func writeError(w http.ResponseWriter, status int, err error) {
	msg := strings.TrimPrefix(err.Error(), "gateway: ")
	serve.WriteJSON(w, status, serve.ErrorResponse{Error: msg})
}

// probeLoop actively health-checks one replica every ProbeInterval,
// healthy or ejected, until Close.
func (g *Gateway) probeLoop(rep *replica) {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
		g.probeOnce(rep)
	}
}

// probeOnce runs one active health check — GET /healthz within
// ProbeTimeout, healthy only on a 200 — and feeds the result into the
// replica's state machine.
func (g *Gateway) probeOnce(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	res, err := g.send(ctx, rep, http.MethodGet, "/healthz", nil, nil)
	g.recordProbe(rep, err == nil && res.status == http.StatusOK)
}
