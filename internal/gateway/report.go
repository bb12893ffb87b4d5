package gateway

import (
	"errors"
	"fmt"
	"math"
	"time"

	"perfpred/internal/obs"
)

// metrics holds the registry entries the gateway records into, each
// registered here under its gateway.* name and resolved once at
// startup (the same pattern internal/serve uses). /metrics serves the
// registry; Gateway.Report reads the same handles.
type metrics struct {
	reg *obs.Registry
	// requests counts /v1/predict requests accepted for routing
	// (drained requests included).
	requests *obs.Counter
	// retries counts attempts retried on the next replica after a
	// transport failure (a killed or unreachable replica).
	retries *obs.Counter
	// errors counts gateway-originated terminal errors: no healthy
	// replica (503), every attempt failed in transport (502), or the
	// request deadline expired with no response in hand (504).
	errors *obs.Counter
	// ejects and readmits count replica transitions healthy → ejected
	// and back.
	ejects, readmits *obs.Counter
	// probes counts active health probes sent; probeFails those that
	// failed (transport error or non-200). The report carries them per
	// replica.
	probes, probeFails *obs.Counter
	// faults counts injected faults that fired at the gateway.route
	// point: 0 outside chaos runs.
	faults *obs.Counter
	// latency observes end-to-end predict seconds; upstream observes
	// each attempt's upstream seconds (primary and retry alike).
	latency, upstream *obs.Histogram
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:        reg,
		requests:   reg.Counter("gateway.requests"),
		retries:    reg.Counter("gateway.retries"),
		errors:     reg.Counter("gateway.errors"),
		ejects:     reg.Counter("gateway.ejects"),
		readmits:   reg.Counter("gateway.readmits"),
		probes:     reg.Counter("gateway.probes"),
		probeFails: reg.Counter("gateway.probe_failures"),
		faults:     reg.Counter("gateway.faults_injected"),
		latency:    reg.Histogram("gateway.latency_seconds"),
		upstream:   reg.Histogram("gateway.upstream_seconds"),
	}
}

// ReportVersion is the current Report schema version.
const ReportVersion = 3

// ReplicaReport is one replica's lifetime as the gateway saw it.
type ReplicaReport struct {
	// Addr is the replica's upstream address.
	Addr string `json:"addr"`
	// Healthy is the replica's health state at snapshot time.
	Healthy bool `json:"healthy"`
	// Requests counts attempts dispatched to this replica.
	Requests int64 `json:"requests"`
	// TransportErrors counts attempts that failed below HTTP (refused,
	// reset, torn body) — the signal that drives passive ejection.
	TransportErrors int64 `json:"transport_errors"`
	// Ejects and Readmits count this replica's health transitions.
	Ejects   int64 `json:"ejects"`
	Readmits int64 `json:"readmits"`
	// Probes and ProbeFailures count active health checks.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
}

// Report is the machine-readable record of one gateway lifetime, the
// front-tier analogue of serve.Report: which replicas it fronted and
// their health history, how much traffic it routed, how often it
// retried and erred, and how fast. It counts no sheds: a replica's
// admission queue is the tier's only shed point, and its 429s pass
// through. The gateway exposes it live on /gw/report and
// cmd/perfpredgw writes it at SIGTERM drain behind -report.
type Report struct {
	// Version is the schema version (ReportVersion).
	Version int `json:"version"`
	// Addr is the gateway's bound listen address.
	Addr string `json:"addr,omitempty"`
	// UptimeSeconds is the gateway's serving time at snapshot.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Replicas is the per-replica census, in configuration order.
	Replicas []ReplicaReport `json:"replicas"`

	// Requests through FaultsInjected are the lifetime gateway.*
	// counters (see metrics).
	Requests       int64 `json:"requests"`
	Retries        int64 `json:"retries"`
	Errors         int64 `json:"errors"`
	Ejects         int64 `json:"ejects"`
	Readmits       int64 `json:"readmits"`
	FaultsInjected int64 `json:"faults_injected"`

	// LatencySeconds and UpstreamSeconds summarize the timing histograms.
	LatencySeconds  obs.HistogramStats `json:"latency_seconds"`
	UpstreamSeconds obs.HistogramStats `json:"upstream_seconds"`
}

// Report snapshots the gateway's lifetime.
func (g *Gateway) Report() *Report {
	addr, _ := g.addr.Load().(string)
	reps := make([]ReplicaReport, len(g.reps))
	for i, rep := range g.reps {
		reps[i] = rep.report()
	}
	return &Report{
		Version:         ReportVersion,
		Addr:            addr,
		UptimeSeconds:   time.Since(g.started).Seconds(),
		Replicas:        reps,
		Requests:        g.met.requests.Value(),
		Retries:         g.met.retries.Value(),
		Errors:          g.met.errors.Value(),
		Ejects:          g.met.ejects.Value(),
		Readmits:        g.met.readmits.Value(),
		FaultsInjected:  g.met.faults.Value(),
		LatencySeconds:  g.met.latency.Snapshot(),
		UpstreamSeconds: g.met.upstream.Snapshot(),
	}
}

// Validate checks structural invariants: supported version, at least one
// replica, non-negative counters, transition counts that match the
// per-replica census and finite, ordered histogram summaries.
func (r *Report) Validate() error {
	if r == nil {
		return errors.New("gateway: nil report")
	}
	if r.Version != ReportVersion {
		return fmt.Errorf("gateway: unsupported report version %d (want %d)", r.Version, ReportVersion)
	}
	if len(r.Replicas) == 0 {
		return errors.New("gateway: report has no replicas")
	}
	for name, v := range map[string]int64{
		"requests": r.Requests, "retries": r.Retries, "errors": r.Errors,
		"ejects": r.Ejects, "readmits": r.Readmits, "faults_injected": r.FaultsInjected,
	} {
		if v < 0 {
			return fmt.Errorf("gateway: report %s is negative", name)
		}
	}
	var ejects, readmits int64
	for i, rep := range r.Replicas {
		if rep.Addr == "" {
			return fmt.Errorf("gateway: report replica %d has no address", i)
		}
		for name, v := range map[string]int64{
			"requests": rep.Requests, "transport_errors": rep.TransportErrors,
			"ejects": rep.Ejects, "readmits": rep.Readmits,
			"probes": rep.Probes, "probe_failures": rep.ProbeFailures,
		} {
			if v < 0 {
				return fmt.Errorf("gateway: report replica %s %s is negative", rep.Addr, name)
			}
		}
		if rep.ProbeFailures > rep.Probes {
			return fmt.Errorf("gateway: report replica %s probe_failures %d exceeds probes %d",
				rep.Addr, rep.ProbeFailures, rep.Probes)
		}
		if rep.Readmits > rep.Ejects {
			return fmt.Errorf("gateway: report replica %s readmits %d exceeds ejects %d",
				rep.Addr, rep.Readmits, rep.Ejects)
		}
		ejects += rep.Ejects
		readmits += rep.Readmits
	}
	if ejects != r.Ejects || readmits != r.Readmits {
		return fmt.Errorf("gateway: report transitions (%d ejects, %d readmits) disagree with replica census (%d, %d)",
			r.Ejects, r.Readmits, ejects, readmits)
	}
	if math.IsNaN(r.UptimeSeconds) || math.IsInf(r.UptimeSeconds, 0) || r.UptimeSeconds < 0 {
		return errors.New("gateway: report uptime is invalid")
	}
	for name, h := range map[string]obs.HistogramStats{
		"latency_seconds": r.LatencySeconds, "upstream_seconds": r.UpstreamSeconds,
	} {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("gateway: report histogram %s %w", name, err)
		}
	}
	return nil
}

// WriteFile writes the report to path as indented JSON.
func (r *Report) WriteFile(path string) error { return obs.WriteFile(path, r) }
