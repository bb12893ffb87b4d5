package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"perfpred/internal/obs"
	"perfpred/internal/predcache"
)

// metrics holds the registry entries the serving path records into,
// each registered here under its serve.* name and resolved once, so
// hot-path increments never take the registry lock. /metrics serves
// the registry; Server.Report reads the same handles.
type metrics struct {
	reg *obs.Registry
	// requests counts accepted /v1/predict requests; predictions counts
	// scored rows (a batch body counts once per row); batches counts
	// kernel invocations, the coalesced batches the batcher executed.
	requests, predictions, batches *obs.Counter
	// shed counts requests refused with 429 because the admission queue
	// was full.
	shed *obs.Counter
	// errors counts admitted requests that failed on the server side: a
	// scoring failure, a deadline that expired in the queue, or a
	// non-finite prediction. Client errors (400, 404) are refused before
	// admission and never counted.
	errors *obs.Counter
	// reloads counts successful registry reloads.
	reloads *obs.Counter
	// faults counts injected faults that fired on the serving path
	// (admission, batch flush, cache lookup, reload): 0 outside chaos
	// runs.
	faults *obs.Counter
	// batchSize observes each executed batch's row count; queueWait the
	// seconds a request sat queued before its batch started; latency the
	// /v1/predict handler's seconds; kernel the seconds inside the
	// predict kernel per batch.
	batchSize, queueWait, latency, kernel *obs.Histogram
	// queueDepth is the admission-queue depth sampled at each batch
	// start. It is a point sample, so only /metrics shows it.
	queueDepth *obs.Gauge
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:         reg,
		requests:    reg.Counter("serve.requests"),
		predictions: reg.Counter("serve.predictions"),
		batches:     reg.Counter("serve.batches"),
		shed:        reg.Counter("serve.shed"),
		errors:      reg.Counter("serve.errors"),
		reloads:     reg.Counter("serve.reloads"),
		faults:      reg.Counter("serve.faults_injected"),
		batchSize:   reg.Histogram("serve.batch_size"),
		queueWait:   reg.Histogram("serve.queue_wait_seconds"),
		latency:     reg.Histogram("serve.latency_seconds"),
		kernel:      reg.Histogram("serve.kernel_seconds"),
		queueDepth:  reg.Gauge("serve.queue_depth"),
	}
}

// ReportVersion is the current Report schema version.
const ReportVersion = 1

// Report is the machine-readable record of one serving daemon's
// lifetime, the serving analogue of obs.RunReport: what was served
// (models, registry generation), how much (the serve.* and cache.*
// counters) and how fast (batch-size, queue-wait, latency and kernel
// histograms). The daemon exposes it live on /v1/report and writes it
// at shutdown behind -report.
type Report struct {
	// Version is the schema version (ReportVersion).
	Version int `json:"version"`
	// Addr is the daemon's bound listen address.
	Addr string `json:"addr,omitempty"`
	// ModelsDir is the registry's model directory.
	ModelsDir string `json:"models_dir,omitempty"`
	// Models lists the served model names, sorted.
	Models []string `json:"models,omitempty"`
	// Generation is the registry's reload generation (1 = initial load).
	Generation int64 `json:"generation"`
	// UptimeSeconds is the daemon's serving time at snapshot.
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Requests through FaultsInjected are the lifetime serve.* counters
	// (see metrics).
	Requests       int64 `json:"requests"`
	Predictions    int64 `json:"predictions"`
	Batches        int64 `json:"batches"`
	Shed           int64 `json:"shed"`
	Errors         int64 `json:"errors"`
	Reloads        int64 `json:"reloads"`
	FaultsInjected int64 `json:"faults_injected"`

	// Cache carries the prediction cache's counters.
	Cache CacheStats `json:"cache"`

	// BatchSize, QueueWaitSeconds, LatencySeconds and KernelSeconds
	// summarize the timing histograms.
	BatchSize        obs.HistogramStats `json:"batch_size"`
	QueueWaitSeconds obs.HistogramStats `json:"queue_wait_seconds"`
	LatencySeconds   obs.HistogramStats `json:"latency_seconds"`
	KernelSeconds    obs.HistogramStats `json:"kernel_seconds"`
}

// CacheStats is the prediction cache's counters as a Report carries
// them. Hits + Misses == Lookups once the daemon is quiescent, which
// the chaos harness asserts on the final post-drain report.
type CacheStats struct {
	predcache.Stats
	// Coalesced is always 0: the cache does not coalesce concurrent
	// misses. The field stays for readers that still report it.
	Coalesced int64 `json:"coalesced"`
}

// Report snapshots the daemon's lifetime.
func (s *Server) Report() *Report {
	addr, _ := s.addr.Load().(string)
	return &Report{
		Version:          ReportVersion,
		Addr:             addr,
		ModelsDir:        s.reg.Dir(),
		Models:           s.reg.Names(),
		Generation:       s.reg.Generation(),
		UptimeSeconds:    time.Since(s.started).Seconds(),
		Requests:         s.met.requests.Value(),
		Predictions:      s.met.predictions.Value(),
		Batches:          s.met.batches.Value(),
		Shed:             s.met.shed.Value(),
		Errors:           s.met.errors.Value(),
		Reloads:          s.met.reloads.Value(),
		FaultsInjected:   s.met.faults.Value(),
		Cache:            CacheStats{Stats: s.cache.Stats()},
		BatchSize:        s.met.batchSize.Snapshot(),
		QueueWaitSeconds: s.met.queueWait.Snapshot(),
		LatencySeconds:   s.met.latency.Snapshot(),
		KernelSeconds:    s.met.kernel.Snapshot(),
	}
}

// Validate checks structural invariants: supported version, non-negative
// counters, finite numbers everywhere (JSON cannot carry NaN/Inf) and
// ordered histogram quantiles.
func (r *Report) Validate() error {
	if r == nil {
		return errors.New("serve: nil report")
	}
	if r.Version != ReportVersion {
		return fmt.Errorf("serve: unsupported report version %d (want %d)", r.Version, ReportVersion)
	}
	for name, v := range map[string]int64{
		"requests": r.Requests, "predictions": r.Predictions, "batches": r.Batches,
		"shed": r.Shed, "errors": r.Errors, "reloads": r.Reloads, "generation": r.Generation,
		"faults_injected": r.FaultsInjected,
		"cache lookups":   r.Cache.Lookups, "cache hits": r.Cache.Hits,
		"cache misses": r.Cache.Misses, "cache coalesced": r.Cache.Coalesced,
		"cache evictions": r.Cache.Evictions, "cache invalidations": r.Cache.Invalidations,
	} {
		if v < 0 {
			return fmt.Errorf("serve: report %s is negative", name)
		}
	}
	if math.IsNaN(r.UptimeSeconds) || math.IsInf(r.UptimeSeconds, 0) || r.UptimeSeconds < 0 {
		return errors.New("serve: report uptime is invalid")
	}
	for name, h := range map[string]obs.HistogramStats{
		"batch_size": r.BatchSize, "queue_wait_seconds": r.QueueWaitSeconds,
		"latency_seconds": r.LatencySeconds, "kernel_seconds": r.KernelSeconds,
	} {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("serve: report histogram %s %w", name, err)
		}
	}
	return nil
}

// WriteFile writes the report to path as indented JSON.
func (r *Report) WriteFile(path string) error { return obs.WriteFile(path, r) }
