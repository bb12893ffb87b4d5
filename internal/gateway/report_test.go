package gateway

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfpred/internal/obs"
)

// sampleReport records a known lifetime into a gateway's handles and
// replica census (its replicas are never contacted: the first probe is
// an hour away) and returns the gateway's report of it.
func sampleReport(t *testing.T) *Report {
	t.Helper()
	g, err := New(Config{Replicas: []string{"127.0.0.1:8091", "127.0.0.1:8092"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	g.SetAddr("127.0.0.1:8090")
	g.met.requests.Add(100)
	g.met.retries.Add(2)
	g.met.errors.Add(1)
	g.met.ejects.Add(1)
	g.met.readmits.Add(1)
	g.met.latency.Observe(0.004)
	g.met.upstream.Observe(0.003)
	r0, r1 := g.reps[0], g.reps[1]
	r0.requests.Add(60)
	r0.probes = 10
	r1.requests.Add(48)
	r1.transportErrs.Add(2)
	r1.ejects, r1.readmits, r1.probes, r1.probeFails = 1, 1, 12, 3
	return g.Report()
}

// TestReportRoundTrip pins that a report read from the gateway's
// handles validates, writes without a raw metrics copy, and reads back
// equal on every summary field.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport(t)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r.Requests != 100 || r.Retries != 2 || r.Errors != 1 || r.Addr != "127.0.0.1:8090" {
		t.Fatalf("counters not read from the handles: %+v", r)
	}
	path := filepath.Join(t.TempDir(), "gw.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"metrics"`)) {
		t.Fatalf("report carries a raw metrics copy:\n%s", data)
	}
	back, err := obs.ReadJSON[Report](bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.Requests != r.Requests || back.Ejects != r.Ejects ||
		len(back.Replicas) != len(r.Replicas) || back.Replicas[1].ProbeFailures != 3 {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, r)
	}
}

// TestReportValidateRejects drives each structural invariant.
func TestReportValidateRejects(t *testing.T) {
	cases := map[string]func(*Report){
		"wrong version":           func(r *Report) { r.Version = 99 },
		"no replicas":             func(r *Report) { r.Replicas = nil },
		"negative counter":        func(r *Report) { r.Requests = -1 },
		"replica without address": func(r *Report) { r.Replicas[0].Addr = "" },
		"probe failures exceed probes": func(r *Report) {
			r.Replicas[0].ProbeFailures = r.Replicas[0].Probes + 1
		},
		"readmits exceed ejects": func(r *Report) {
			r.Replicas[0].Readmits = r.Replicas[0].Ejects + 1
		},
		"census disagrees with totals": func(r *Report) { r.Ejects += 5 },
		"negative uptime":              func(r *Report) { r.UptimeSeconds = -1 },
		"p99 above max":                func(r *Report) { r.LatencySeconds.P99 = r.LatencySeconds.Max * 2 },
		"p50 above p95":                func(r *Report) { r.UpstreamSeconds.P50 = r.UpstreamSeconds.P95 * 1.5 },
	}
	for name, corrupt := range cases {
		r := sampleReport(t)
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt report", name)
		}
	}
	var nilReport *Report
	if err := nilReport.Validate(); err == nil {
		t.Error("nil report validated")
	}
}

// TestReportReadRejectsCorrupt checks the reader refuses both non-JSON
// and structurally invalid payloads.
func TestReportReadRejectsCorrupt(t *testing.T) {
	if _, err := obs.ReadJSON[Report](strings.NewReader("not json")); err == nil {
		t.Error("reader accepted non-JSON")
	}
	if _, err := obs.ReadJSON[Report](strings.NewReader(`{"version":3,"replicas":[]}`)); err == nil {
		t.Error("reader accepted a report with no replicas")
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
// same handles: after a retry onto the survivor of a killed replica and
// a 502 once both are gone, every report counter equals the /metrics
// sample of its registry name.
func TestReportMatchesMetrics(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	g := newTestGateway(t, Config{ProbeInterval: time.Hour, FailThreshold: 1}, r1, r2)
	body := predictBody("m", 9, 9, 9)
	kill := func(addr string) {
		for _, f := range []*fakeReplica{r1, r2} {
			if f.addr() == addr {
				f.srv.CloseClientConnections()
				f.srv.Close()
			}
		}
	}
	rec := doPredict(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d", rec.Code)
	}
	kill(rec.Header().Get(HeaderReplica))
	if rec = doPredict(t, g, body); rec.Code != http.StatusOK || rec.Header().Get(HeaderRoute) != RouteRetry {
		t.Fatalf("predict after kill: %d route %q, want a 200 retry", rec.Code, rec.Header().Get(HeaderRoute))
	}
	kill(rec.Header().Get(HeaderReplica))
	if rec = doPredict(t, g, body); rec.Code != http.StatusBadGateway {
		t.Fatalf("predict with every replica dead: %d, want 502", rec.Code)
	}

	rep := g.Report()
	if rep.Retries == 0 || rep.Errors == 0 || rep.Ejects != 2 {
		t.Fatalf("traffic missed the retry, the 502 or the ejects: %+v", rep)
	}
	got := scrapeMetrics(t, g.Handler())
	for name, want := range map[string]int64{
		"gateway.requests":        rep.Requests,
		"gateway.retries":         rep.Retries,
		"gateway.errors":          rep.Errors,
		"gateway.ejects":          rep.Ejects,
		"gateway.readmits":        rep.Readmits,
		"gateway.faults_injected": rep.FaultsInjected,
	} {
		prom := "perfpred_" + strings.ReplaceAll(name, ".", "_")
		if v, ok := got[prom]; !ok || v != float64(want) {
			t.Errorf("%s: /metrics %s = %v (present %v), report %d", name, prom, v, ok, want)
		}
	}
}
