package obs

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// Canonical serving metric names. The serving daemon's admission queue,
// micro-batcher and HTTP handlers record into these registry entries,
// and BuildServeReport reads the same names back out of a snapshot, so
// the live /metrics endpoint and the end-of-life ServeReport can never
// disagree about what was measured.
const (
	// MetricServeRequests counts accepted /v1/predict requests.
	MetricServeRequests = "serve.requests"
	// MetricServePredictions counts scored rows (a batch body counts
	// once per row).
	MetricServePredictions = "serve.predictions"
	// MetricServeBatches counts kernel invocations — coalesced batches
	// the micro-batcher executed.
	MetricServeBatches = "serve.batches"
	// MetricServeShed counts requests rejected with 429 because the
	// admission queue was full.
	MetricServeShed = "serve.shed"
	// MetricServeErrors counts admitted requests that failed on the
	// server side: a scoring failure, a deadline that expired in the
	// queue, or a non-finite prediction. Client errors (400, 404) are
	// rejected before admission and never counted.
	MetricServeErrors = "serve.errors"
	// MetricServeReloads counts successful registry reloads.
	MetricServeReloads = "serve.reloads"
	// MetricServeFaults counts injected faults that fired on the serving
	// path (admission, batch flush, reload) — always 0 outside chaos
	// runs, where the faultinject layer stays disabled.
	MetricServeFaults = "serve.faults_injected"
	// MetricServeBatchSize observes the row count of each executed batch.
	MetricServeBatchSize = "serve.batch_size"
	// MetricServeQueueWait observes seconds a request sat in the
	// admission queue before its batch started.
	MetricServeQueueWait = "serve.queue_wait_seconds"
	// MetricServeLatency observes end-to-end /v1/predict handler seconds.
	MetricServeLatency = "serve.latency_seconds"
	// MetricServeKernel observes seconds inside the predict kernel per
	// batch.
	MetricServeKernel = "serve.kernel_seconds"
	// MetricServeQueueDepth gauges the admission-queue depth sampled at
	// each batch start.
	MetricServeQueueDepth = "serve.queue_depth"
)

// Canonical prediction-cache metric names. The predcache layer behind
// every serving daemon records into these entries.
const (
	// MetricCacheLookups counts row lookups against the prediction
	// cache. Every lookup is classified as exactly one hit or miss, so
	// lookups == hits + misses at rest.
	MetricCacheLookups = "cache.lookups"
	// MetricCacheHits counts lookups answered from a resolved entry
	// (bit-identical to scoring, no kernel work).
	MetricCacheHits = "cache.hits"
	// MetricCacheMisses counts lookups the cache could not answer; each
	// miss is scored through the batcher.
	MetricCacheMisses = "cache.misses"
	// MetricCacheEvictions counts entries dropped for capacity (LRU) or
	// displaced by a hash-colliding row.
	MetricCacheEvictions = "cache.evictions"
	// MetricCacheInvalidations counts entries dropped because their
	// artifact generation was superseded by a reload.
	MetricCacheInvalidations = "cache.invalidations"
)

// ServeReportVersion is the current ServeReport schema version.
const ServeReportVersion = 1

// ServeMeta identifies one daemon lifetime for its ServeReport.
type ServeMeta struct {
	// Addr is the bound listen address.
	Addr string
	// ModelsDir is the registry's model directory.
	ModelsDir string
	// Models lists the registry's model names at snapshot time.
	Models []string
	// Generation is the registry's reload generation (1 = initial load).
	Generation int64
	// Uptime is how long the daemon has been serving.
	Uptime time.Duration
}

// ServeReport is the machine-readable record of one serving daemon's
// lifetime — the serving analogue of RunReport: what was served (models,
// registry generation), how much (request/prediction/batch/shed
// counters) and how fast (batch-size, queue-wait, latency and kernel
// histograms). The daemon exposes it live on /v1/report and writes it at
// shutdown behind -report.
type ServeReport struct {
	// Version is the schema version (ServeReportVersion).
	Version int `json:"version"`
	// Addr is the daemon's bound listen address.
	Addr string `json:"addr,omitempty"`
	// ModelsDir is the registry's model directory.
	ModelsDir string `json:"models_dir,omitempty"`
	// Models lists the served model names, sorted.
	Models []string `json:"models,omitempty"`
	// Generation is the registry's reload generation.
	Generation int64 `json:"generation"`
	// UptimeSeconds is the daemon's serving time at snapshot.
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Requests, Predictions, Batches, Shed, Errors and Reloads are the
	// lifetime counters (see the MetricServe* names).
	Requests    int64 `json:"requests"`
	Predictions int64 `json:"predictions"`
	Batches     int64 `json:"batches"`
	Shed        int64 `json:"shed"`
	Errors      int64 `json:"errors"`
	Reloads     int64 `json:"reloads"`
	// FaultsInjected counts injected faults that fired on the serving
	// path during a chaos run (0 in production, where injection is
	// disabled).
	FaultsInjected int64 `json:"faults_injected"`

	// Cache carries the prediction-cache counters.
	Cache CacheStats `json:"cache"`

	// BatchSize, QueueWaitSeconds, LatencySeconds and KernelSeconds
	// summarize the timing histograms.
	BatchSize        HistogramStats `json:"batch_size"`
	QueueWaitSeconds HistogramStats `json:"queue_wait_seconds"`
	LatencySeconds   HistogramStats `json:"latency_seconds"`
	KernelSeconds    HistogramStats `json:"kernel_seconds"`

	// Metrics is the full raw snapshot the summary fields were read
	// from, for anything the typed fields leave out.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// CacheStats summarizes the prediction cache's lifetime counters (see
// the MetricCache* names). Hits + Misses == Lookups once the daemon is
// quiescent; a live snapshot can catch a lookup between its counter
// increments, so that identity is asserted by the chaos harness on the
// final post-drain report, not by Validate.
type CacheStats struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// Coalesced is always 0: the cache does not coalesce concurrent
	// misses. The field stays for readers that still report it.
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// BuildServeReport snapshots the registry into a ServeReport.
func BuildServeReport(meta ServeMeta, reg *Registry) *ServeReport {
	r := &ServeReport{
		Version:       ServeReportVersion,
		Addr:          meta.Addr,
		ModelsDir:     meta.ModelsDir,
		Models:        append([]string(nil), meta.Models...),
		Generation:    meta.Generation,
		UptimeSeconds: meta.Uptime.Seconds(),
	}
	if reg != nil {
		snap := reg.Snapshot()
		r.Requests = snap.Counters[MetricServeRequests]
		r.Predictions = snap.Counters[MetricServePredictions]
		r.Batches = snap.Counters[MetricServeBatches]
		r.Shed = snap.Counters[MetricServeShed]
		r.Errors = snap.Counters[MetricServeErrors]
		r.Reloads = snap.Counters[MetricServeReloads]
		r.FaultsInjected = snap.Counters[MetricServeFaults]
		r.Cache = CacheStats{
			Lookups:       snap.Counters[MetricCacheLookups],
			Hits:          snap.Counters[MetricCacheHits],
			Misses:        snap.Counters[MetricCacheMisses],
			Evictions:     snap.Counters[MetricCacheEvictions],
			Invalidations: snap.Counters[MetricCacheInvalidations],
		}
		r.BatchSize = snap.Histograms[MetricServeBatchSize]
		r.QueueWaitSeconds = snap.Histograms[MetricServeQueueWait]
		r.LatencySeconds = snap.Histograms[MetricServeLatency]
		r.KernelSeconds = snap.Histograms[MetricServeKernel]
		r.Metrics = &snap
	}
	return r
}

// Validate checks structural invariants: supported version, non-negative
// counters, finite numbers everywhere (JSON cannot carry NaN/Inf) and
// ordered histogram quantiles.
func (r *ServeReport) Validate() error {
	if r == nil {
		return errors.New("obs: nil serve report")
	}
	if r.Version != ServeReportVersion {
		return fmt.Errorf("obs: unsupported serve report version %d (want %d)", r.Version, ServeReportVersion)
	}
	for name, v := range map[string]int64{
		"requests": r.Requests, "predictions": r.Predictions, "batches": r.Batches,
		"shed": r.Shed, "errors": r.Errors, "reloads": r.Reloads, "generation": r.Generation,
		"faults_injected": r.FaultsInjected,
		"cache.lookups":   r.Cache.Lookups, "cache.hits": r.Cache.Hits,
		"cache.misses": r.Cache.Misses, "cache.coalesced": r.Cache.Coalesced,
		"cache.evictions": r.Cache.Evictions, "cache.invalidations": r.Cache.Invalidations,
	} {
		if v < 0 {
			return fmt.Errorf("obs: serve report %s is negative", name)
		}
	}
	if !isFinite(r.UptimeSeconds) || r.UptimeSeconds < 0 {
		return errors.New("obs: serve report uptime is invalid")
	}
	for name, h := range map[string]HistogramStats{
		"batch_size": r.BatchSize, "queue_wait_seconds": r.QueueWaitSeconds,
		"latency_seconds": r.LatencySeconds, "kernel_seconds": r.KernelSeconds,
	} {
		if err := h.validate(); err != nil {
			return fmt.Errorf("obs: serve report histogram %s %w", name, err)
		}
	}
	return nil
}

// WriteFile writes the report to path as indented JSON.
func (r *ServeReport) WriteFile(path string) error { return writeFile(path, r) }

// ReadServeReport parses and validates a serve report.
func ReadServeReport(r io.Reader) (*ServeReport, error) { return readJSON[ServeReport](r) }
