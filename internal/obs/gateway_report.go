package obs

import (
	"errors"
	"fmt"
	"time"
)

// Canonical gateway metric names. The replicated-serving front tier
// (internal/gateway, cmd/perfpredgw) records into these entries, and
// BuildGatewayReport reads the same names back out of a snapshot — the
// same live-metrics/final-report consistency contract the serving daemon
// keeps via the MetricServe* names.
const (
	// MetricGatewayRequests counts /v1/predict requests the gateway
	// accepted for routing (shed and drained requests included).
	MetricGatewayRequests = "gateway.requests"
	// MetricGatewayRetries counts attempts retried on the next replica
	// after a transport failure (a killed or unreachable replica).
	MetricGatewayRetries = "gateway.retries"
	// MetricGatewayShed counts requests the gateway rejected with its own
	// 429 because the routed replica was at its in-flight cap.
	// (Replica-side sheds pass through and are counted by the replica.)
	MetricGatewayShed = "gateway.shed"
	// MetricGatewayErrors counts gateway-originated terminal errors: no
	// healthy replica (503), every attempt failed in transport (502),
	// or the request deadline expired with no response in hand (504).
	MetricGatewayErrors = "gateway.errors"
	// MetricGatewayEjects counts replica transitions healthy → ejected.
	MetricGatewayEjects = "gateway.ejects"
	// MetricGatewayReadmits counts replica transitions ejected → healthy.
	MetricGatewayReadmits = "gateway.readmits"
	// MetricGatewayProbes counts active health probes sent.
	MetricGatewayProbes = "gateway.probes"
	// MetricGatewayProbeFailures counts probes that failed (transport
	// error, non-200, or an injected gateway.health_probe fault).
	MetricGatewayProbeFailures = "gateway.probe_failures"
	// MetricGatewayFaults counts injected faults that fired on the
	// gateway path (route, health probe) — 0 outside chaos runs.
	MetricGatewayFaults = "gateway.faults_injected"
	// MetricGatewayLatency observes end-to-end gateway predict seconds.
	MetricGatewayLatency = "gateway.latency_seconds"
	// MetricGatewayUpstream observes per-attempt upstream seconds
	// (primary and retry attempts each observe once).
	MetricGatewayUpstream = "gateway.upstream_seconds"
)

// GatewayReportVersion is the current GatewayReport schema version.
const GatewayReportVersion = 2

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

// GatewayMeta identifies one gateway lifetime for its report.
type GatewayMeta struct {
	// Addr is the gateway's bound listen address.
	Addr string
	// Replicas is the per-replica census at snapshot time.
	Replicas []ReplicaReport
	// Uptime is how long the gateway has been serving.
	Uptime time.Duration
}

// GatewayReport is the machine-readable record of one gateway lifetime —
// the front-tier analogue of ServeReport: which replicas it fronted and
// their health history, how much traffic it routed, how often it
// retried, shed and erred, and how fast. The gateway exposes it live on
// /gw/report and cmd/perfpredgw writes it at SIGTERM drain behind
// -report.
type GatewayReport struct {
	// Version is the schema version (GatewayReportVersion).
	Version int `json:"version"`
	// Addr is the gateway's bound listen address.
	Addr string `json:"addr,omitempty"`
	// UptimeSeconds is the gateway's serving time at snapshot.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Replicas is the per-replica census, in configuration order.
	Replicas []ReplicaReport `json:"replicas"`

	// Requests through Errors are the lifetime counters (see the
	// MetricGateway* names).
	Requests int64 `json:"requests"`
	Retries  int64 `json:"retries"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	Ejects   int64 `json:"ejects"`
	Readmits int64 `json:"readmits"`
	// FaultsInjected counts injected gateway-path faults (0 outside
	// chaos runs).
	FaultsInjected int64 `json:"faults_injected"`

	// LatencySeconds and UpstreamSeconds summarize the timing histograms.
	LatencySeconds  HistogramStats `json:"latency_seconds"`
	UpstreamSeconds HistogramStats `json:"upstream_seconds"`

	// Metrics is the full raw snapshot the summary fields were read from.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// BuildGatewayReport snapshots the registry into a GatewayReport.
func BuildGatewayReport(meta GatewayMeta, reg *Registry) *GatewayReport {
	r := &GatewayReport{
		Version:       GatewayReportVersion,
		Addr:          meta.Addr,
		UptimeSeconds: meta.Uptime.Seconds(),
		Replicas:      append([]ReplicaReport(nil), meta.Replicas...),
	}
	if reg != nil {
		snap := reg.Snapshot()
		r.Requests = snap.Counters[MetricGatewayRequests]
		r.Retries = snap.Counters[MetricGatewayRetries]
		r.Shed = snap.Counters[MetricGatewayShed]
		r.Errors = snap.Counters[MetricGatewayErrors]
		r.Ejects = snap.Counters[MetricGatewayEjects]
		r.Readmits = snap.Counters[MetricGatewayReadmits]
		r.FaultsInjected = snap.Counters[MetricGatewayFaults]
		r.LatencySeconds = snap.Histograms[MetricGatewayLatency]
		r.UpstreamSeconds = snap.Histograms[MetricGatewayUpstream]
		r.Metrics = &snap
	}
	return r
}

// Validate checks structural invariants: supported version, at least one
// replica, non-negative counters, transition counts that match the
// per-replica census
// and finite, ordered histogram summaries.
func (r *GatewayReport) Validate() error {
	if r == nil {
		return errors.New("obs: nil gateway report")
	}
	if r.Version != GatewayReportVersion {
		return fmt.Errorf("obs: unsupported gateway report version %d (want %d)", r.Version, GatewayReportVersion)
	}
	if len(r.Replicas) == 0 {
		return errors.New("obs: gateway report has no replicas")
	}
	for name, v := range map[string]int64{
		"requests": r.Requests, "retries": r.Retries, "shed": r.Shed, "errors": r.Errors,
		"ejects": r.Ejects, "readmits": r.Readmits, "faults_injected": r.FaultsInjected,
	} {
		if v < 0 {
			return fmt.Errorf("obs: gateway report %s is negative", name)
		}
	}
	var ejects, readmits int64
	for i, rep := range r.Replicas {
		if rep.Addr == "" {
			return fmt.Errorf("obs: gateway report replica %d has no address", i)
		}
		for name, v := range map[string]int64{
			"requests": rep.Requests, "transport_errors": rep.TransportErrors,
			"ejects": rep.Ejects, "readmits": rep.Readmits,
			"probes": rep.Probes, "probe_failures": rep.ProbeFailures,
		} {
			if v < 0 {
				return fmt.Errorf("obs: gateway report replica %s %s is negative", rep.Addr, name)
			}
		}
		if rep.ProbeFailures > rep.Probes {
			return fmt.Errorf("obs: gateway report replica %s probe_failures %d exceeds probes %d",
				rep.Addr, rep.ProbeFailures, rep.Probes)
		}
		if rep.Readmits > rep.Ejects {
			return fmt.Errorf("obs: gateway report replica %s readmits %d exceeds ejects %d",
				rep.Addr, rep.Readmits, rep.Ejects)
		}
		ejects += rep.Ejects
		readmits += rep.Readmits
	}
	if ejects != r.Ejects || readmits != r.Readmits {
		return fmt.Errorf("obs: gateway report transitions (%d ejects, %d readmits) disagree with replica census (%d, %d)",
			r.Ejects, r.Readmits, ejects, readmits)
	}
	if !isFinite(r.UptimeSeconds) || r.UptimeSeconds < 0 {
		return errors.New("obs: gateway report uptime is invalid")
	}
	for name, h := range map[string]HistogramStats{
		"latency_seconds": r.LatencySeconds, "upstream_seconds": r.UpstreamSeconds,
	} {
		if err := h.validate(); err != nil {
			return fmt.Errorf("obs: gateway report histogram %s %w", name, err)
		}
	}
	return nil
}

// WriteFile writes the report to path as indented JSON.
func (r *GatewayReport) WriteFile(path string) error { return writeFile(path, r) }
