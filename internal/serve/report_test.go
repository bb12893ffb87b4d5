package serve

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"perfpred/internal/obs"
)

// TestReportReadsHandles pins that Report reads every counter and
// histogram the serving path records into, carries the daemon's
// identity, and survives a JSON round trip with no raw metrics copy.
func TestReportReadsHandles(t *testing.T) {
	s, _, dir := newTestServer(t)
	s.SetAddr("127.0.0.1:8080")
	s.met.requests.Add(10)
	s.met.predictions.Add(25)
	s.met.batches.Add(4)
	s.met.shed.Add(2)
	s.met.errors.Inc()
	s.met.reloads.Inc()
	s.met.faults.Add(3)
	for _, v := range []float64{1, 8, 16} {
		s.met.batchSize.Observe(v)
	}
	s.met.latency.Observe(0.002)
	s.met.queueDepth.Set(3)

	rep := s.Report()
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
	if rep.Addr != "127.0.0.1:8080" || rep.ModelsDir != dir || rep.Generation != 1 || len(rep.Models) != 2 || rep.UptimeSeconds <= 0 {
		t.Fatalf("meta wrong: %+v", rep)
	}

	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"metrics"`) {
		t.Fatalf("report carries a raw metrics copy:\n%s", buf.String())
	}
	back, err := obs.ReadJSON[Report](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || back.LatencySeconds.Count != 1 || back.FaultsInjected != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestReportValidateRejects(t *testing.T) {
	rep := &Report{Version: ReportVersion}
	if err := rep.Validate(); err != nil {
		t.Fatalf("empty report invalid: %v", err)
	}
	rep.Version = 99
	if err := rep.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
	rep = &Report{Version: ReportVersion, Shed: -1}
	if err := rep.Validate(); err == nil {
		t.Fatal("negative counter accepted")
	}
	var latency obs.Histogram
	for _, v := range []float64{0.001, 0.002, 0.003, 0.05} {
		latency.Observe(v)
	}
	for name, corrupt := range map[string]func(*obs.HistogramStats){
		"p50 below min": func(h *obs.HistogramStats) { h.P50 = h.Min / 2 },
		"p95 below p50": func(h *obs.HistogramStats) { h.P95 = h.P50 / 2 },
		"p99 above max": func(h *obs.HistogramStats) { h.P99 = h.Max * 2 },
	} {
		rep = &Report{Version: ReportVersion, LatencySeconds: latency.Snapshot()}
		if err := rep.Validate(); err != nil {
			t.Fatalf("live report invalid: %v", err)
		}
		corrupt(&rep.LatencySeconds)
		if err := rep.Validate(); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
	if _, err := obs.ReadJSON[Report](strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// scrapeMetrics GETs /metrics from h and returns its unlabelled
// samples by exposed name.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", sc.Text(), err)
		}
		samples[name] = v
	}
	return samples
}

// TestReportMatchesMetrics pins that the report and /metrics read the
// same handles: after traffic with cache hits and a reload, every
// report counter equals the /metrics sample of its registry name.
func TestReportMatchesMetrics(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if w := postPredict(t, h, map[string]any{"model": "nns", "rows": [][]any{rowJSON(d, 0), rowJSON(d, 1)}}); w.Code != http.StatusOK {
			t.Fatalf("predict: %d %s", w.Code, w.Body)
		}
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if w := postPredict(t, h, map[string]any{"model": "lre", "row": rowJSON(d, 2)}); w.Code != http.StatusOK {
		t.Fatalf("predict after reload: %d %s", w.Code, w.Body)
	}

	rep := s.Report()
	if rep.Cache.Hits == 0 || rep.Reloads != 1 || rep.Cache.Invalidations == 0 {
		t.Fatalf("traffic missed a hit, the reload or its invalidation: %+v", rep)
	}
	got := scrapeMetrics(t, h)
	for name, want := range map[string]int64{
		"serve.requests":        rep.Requests,
		"serve.predictions":     rep.Predictions,
		"serve.batches":         rep.Batches,
		"serve.shed":            rep.Shed,
		"serve.errors":          rep.Errors,
		"serve.reloads":         rep.Reloads,
		"serve.faults_injected": rep.FaultsInjected,
		"cache.lookups":         rep.Cache.Lookups,
		"cache.hits":            rep.Cache.Hits,
		"cache.misses":          rep.Cache.Misses,
		"cache.evictions":       rep.Cache.Evictions,
		"cache.invalidations":   rep.Cache.Invalidations,
	} {
		prom := "perfpred_" + strings.ReplaceAll(name, ".", "_")
		if v, ok := got[prom]; !ok || v != float64(want) {
			t.Errorf("%s: /metrics %s = %v (present %v), report %d", name, prom, v, ok, want)
		}
	}
}
