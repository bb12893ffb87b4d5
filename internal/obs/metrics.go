// Package obs is the framework's observability layer: a lightweight
// stdlib-only metrics registry (counters, gauges, and constant-memory
// log-linear timing histograms whose p50/p95/p99 are within 3.1%), a
// [Recorder] that aggregates the execution engine's Hook stream into
// per-model/per-fold statistics, and a JSON-serializable [RunReport]
// that captures everything a run produced — model errors, the
// selection decision, seeds, worker count and a wall-clock breakdown — so
// experiments leave a machine-readable record instead of scrolled-away
// console text.
//
// The pipeline is: engine.Hook → Recorder → RunReport. The Recorder is a
// plain hook consumer (attach it with Recorder.Hook, tee it with
// engine.Tee next to a progress renderer); the registry it maintains can
// be published over HTTP with [StartMetricsServer] (the registry in
// Prometheus text on /metrics, the process's expvar globals on
// /debug/vars, pprof). Each handler serves the registry it was built
// over, so several servers in one process keep their metrics apart.
//
// The package is tier-agnostic: each serving tier (internal/serve with
// internal/predcache, internal/gateway) registers its own metrics in a
// Registry and builds its own report from the handles it holds, which
// the one report codec here ([WriteJSON], [WriteFile], [ReadJSON])
// validates and persists.
package obs

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in either direction (queue
// depth, worker count). The zero value is ready to use; all methods are
// safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram's bucket layout: index 0 is the underflow bucket, then
// histSub sub-buckets for each of the histRanges ranges [2^e, 2^(e+1))
// from e = histMinExp up, then the overflow bucket. In seconds the
// regular buckets span ~1ns to ~5h; as a count, 1 to 2^34.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histMinExp  = -30
	histRanges  = 64
	histBuckets = histRanges*histSub + 2
	histLow     = 1.0 / (1 << -histMinExp)       // 2^histMinExp
	histHigh    = 1 << (histMinExp + histRanges) // 2^(histMinExp+histRanges)
)

// Histogram accumulates float64 observations (typically seconds) in a
// fixed log-linear bucket layout in the HdrHistogram style: 64
// power-of-two ranges from 2^-30 to 2^34, each split into 16 linear
// sub-buckets, plus an underflow bucket (below 2^-30: zero, negatives
// and NaN too) and an overflow bucket (2^34 and up). Memory is
// constant — 1026 counters, ~8 KiB — whatever the traffic. Observe is
// lock-free and allocation-free: CAS loops keep the exact sum, min and
// max, then one atomic add counts the sample in its bucket. Snapshot
// walks the counters once.
//
// Count, Sum, Min, Max and Mean are exact. P50/P95/P99 estimate the
// nearest-rank order statistic as the midpoint of the bucket holding it,
// clamped to [Min, Max]; for samples in [2^-30, 2^34) the relative error
// is at most 1/(2·16) ≈ 3.1%. The zero value is ready to use; all
// methods are safe for concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	// min holds ^orderKey(min) and max holds orderKey(max), so the zero
	// value of either means "no sample yet" and the first sample replaces
	// it through the same CAS as every later one.
	min, max atomic.Uint64
}

// orderKey maps a float64 to a uint64 whose unsigned order is the float
// order.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// fromOrderKey inverts orderKey.
func fromOrderKey(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// histBucket returns the index of the bucket holding v.
func histBucket(v float64) int {
	switch {
	case !(v >= histLow): // NaN too
		return 0
	case v >= histHigh:
		return histBuckets - 1
	}
	b := math.Float64bits(v)
	exp := int(b>>52&0x7ff) - 1023
	sub := int(b>>(52-histSubBits)) & (histSub - 1)
	return 1 + (exp-histMinExp)*histSub + sub
}

// histMidpoint returns the midpoint of regular bucket i, 1 ≤ i <
// histBuckets-1.
func histMidpoint(i int) float64 {
	i--
	exp := histMinExp + i/histSub
	return math.Ldexp(1+(float64(i%histSub)+0.5)/histSub, exp)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for old := h.sum.Load(); !h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)); old = h.sum.Load() {
	}
	k := orderKey(v)
	for old := h.min.Load(); ^k > old && !h.min.CompareAndSwap(old, ^k); old = h.min.Load() {
	}
	for old := h.max.Load(); k > old && !h.max.CompareAndSwap(old, k); old = h.max.Load() {
	}
	// Counted last, so a snapshot that counts this sample also sees it in
	// min and max.
	h.buckets[histBucket(v)].Add(1)
}

// HistogramStats is an immutable summary of a histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Validate checks a summary's invariants: finite numbers (JSON cannot
// carry NaN/Inf), a non-negative count and, once there are samples,
// Min ≤ P50 ≤ P95 ≤ P99 ≤ Max — which estimated quantiles keep because
// each is clamped to the exact [Min, Max]. The error reads as a
// predicate ("is out of order: ...") for the caller to prefix with the
// histogram's name.
func (h HistogramStats) Validate() error {
	for _, v := range []float64{h.Sum, h.Min, h.Max, h.Mean, h.P50, h.P95, h.P99} {
		if !isFinite(v) {
			return errors.New("has non-finite value")
		}
	}
	if h.Count < 0 {
		return errors.New("has negative count")
	}
	if h.Count > 0 && !(h.Min <= h.P50 && h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max) {
		return fmt.Errorf("is out of order: min %g, p50 %g, p95 %g, p99 %g, max %g", h.Min, h.P50, h.P95, h.P99, h.Max)
	}
	return nil
}

// Snapshot summarizes the histogram. An empty histogram yields the zero
// HistogramStats. The q-quantile is the sample of rank ceil(q·Count),
// estimated by its bucket's midpoint clamped to [Min, Max]; a rank in
// the underflow or overflow bucket estimates as Min or Max.
func (h *Histogram) Snapshot() HistogramStats {
	var counts [histBuckets]uint64
	var n uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return HistogramStats{}
	}
	s := HistogramStats{
		Count: int64(n),
		Sum:   math.Float64frombits(h.sum.Load()),
		Min:   fromOrderKey(^h.min.Load()),
		Max:   fromOrderKey(h.max.Load()),
	}
	s.Mean = s.Sum / float64(n)
	quantiles := [...]struct {
		pct uint64
		dst *float64
	}{{50, &s.P50}, {95, &s.P95}, {99, &s.P99}}
	var seen uint64
	q := 0
	for i, c := range counts {
		seen += c
		for ; q < len(quantiles) && seen >= (n*quantiles[q].pct+99)/100; q++ {
			switch i {
			case 0:
				*quantiles[q].dst = s.Min
			case histBuckets - 1:
				*quantiles[q].dst = s.Max
			default:
				*quantiles[q].dst = min(max(histMidpoint(i), s.Min), s.Max)
			}
		}
	}
	return s
}

// Registry is a named collection of metrics. Metric accessors are
// get-or-create and safe for concurrent use, so instrumentation sites
// never need registration ceremony. WritePrometheus renders its
// snapshot for /metrics, which [MetricsHandler] serves.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of every metric in a registry,
// in JSON-friendly form.
type MetricsSnapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := MetricsSnapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			snap.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			snap.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramStats, len(hists))
		for k, v := range hists {
			snap.Histograms[k] = v.Snapshot()
		}
	}
	return snap
}
