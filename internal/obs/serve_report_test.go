package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestBuildServeReport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricServeRequests).Add(10)
	reg.Counter(MetricServePredictions).Add(25)
	reg.Counter(MetricServeBatches).Add(4)
	reg.Counter(MetricServeShed).Add(2)
	reg.Counter(MetricServeErrors).Inc()
	reg.Counter(MetricServeReloads).Inc()
	reg.Counter(MetricServeFaults).Add(3)
	for _, v := range []float64{1, 8, 16} {
		reg.Histogram(MetricServeBatchSize).Observe(v)
	}
	reg.Histogram(MetricServeLatency).Observe(0.002)
	reg.Gauge(MetricServeQueueDepth).Set(3)

	meta := ServeMeta{
		Addr:       "127.0.0.1:8080",
		ModelsDir:  "models",
		Models:     []string{"a", "b"},
		Generation: 2,
		Uptime:     3 * time.Second,
	}
	rep := BuildServeReport(meta, reg)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 10 || rep.Predictions != 25 || rep.Batches != 4 || rep.Shed != 2 || rep.Errors != 1 || rep.Reloads != 1 {
		t.Fatalf("counters wrong: %+v", rep)
	}
	if rep.FaultsInjected != 3 {
		t.Fatalf("faults counter wrong: %+v", rep)
	}
	if rep.BatchSize.Count != 3 || rep.BatchSize.Max != 16 {
		t.Fatalf("batch-size histogram wrong: %+v", rep.BatchSize)
	}
	if rep.UptimeSeconds != 3 || rep.Generation != 2 || len(rep.Models) != 2 {
		t.Fatalf("meta wrong: %+v", rep)
	}
	if rep.Metrics == nil || rep.Metrics.Gauges[MetricServeQueueDepth] != 3 {
		t.Fatal("raw snapshot missing or wrong")
	}

	// Round trip through JSON.
	var buf bytes.Buffer
	if err := writeJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadServeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || back.LatencySeconds.Count != 1 || back.FaultsInjected != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestServeReportValidateRejects(t *testing.T) {
	rep := BuildServeReport(ServeMeta{}, nil)
	if err := rep.Validate(); err != nil {
		t.Fatalf("empty report invalid: %v", err)
	}
	rep.Version = 99
	if err := rep.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
	rep = BuildServeReport(ServeMeta{}, nil)
	rep.Shed = -1
	if err := rep.Validate(); err == nil {
		t.Fatal("negative counter accepted")
	}
	reg := NewRegistry()
	for _, v := range []float64{0.001, 0.002, 0.003, 0.05} {
		reg.Histogram(MetricServeLatency).Observe(v)
	}
	for name, corrupt := range map[string]func(*HistogramStats){
		"p50 below min": func(h *HistogramStats) { h.P50 = h.Min / 2 },
		"p95 below p50": func(h *HistogramStats) { h.P95 = h.P50 / 2 },
		"p99 above max": func(h *HistogramStats) { h.P99 = h.Max * 2 },
	} {
		rep = BuildServeReport(ServeMeta{}, reg)
		if err := rep.Validate(); err != nil {
			t.Fatalf("live report invalid: %v", err)
		}
		corrupt(&rep.LatencySeconds)
		if err := rep.Validate(); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
	if _, err := ReadServeReport(strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
