package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleGatewayReport() *GatewayReport {
	reg := NewRegistry()
	reg.Counter(MetricGatewayRequests).Add(100)
	reg.Counter(MetricGatewayRetries).Add(2)
	reg.Counter(MetricGatewayShed).Add(1)
	reg.Counter(MetricGatewayEjects).Add(1)
	reg.Counter(MetricGatewayReadmits).Add(1)
	reg.Histogram(MetricGatewayLatency).Observe(0.004)
	reg.Histogram(MetricGatewayUpstream).Observe(0.003)
	return BuildGatewayReport(GatewayMeta{
		Addr: "127.0.0.1:8090",
		Replicas: []ReplicaReport{
			{Addr: "127.0.0.1:8091", Healthy: true, Requests: 60, Probes: 10},
			{Addr: "127.0.0.1:8092", Healthy: true, Requests: 48,
				TransportErrors: 2, Ejects: 1, Readmits: 1, Probes: 12, ProbeFailures: 3},
		},
		Uptime: 90 * time.Second,
	}, reg)
}

// TestGatewayReportRoundTrip pins that a built report validates, writes,
// and reads back equal on every summary field.
func TestGatewayReportRoundTrip(t *testing.T) {
	r := sampleGatewayReport()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r.Requests != 100 || r.Retries != 2 || r.Shed != 1 {
		t.Fatalf("counters not read from registry: %+v", r)
	}
	path := filepath.Join(t.TempDir(), "gw.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := readJSON[GatewayReport](f)
	if err != nil {
		t.Fatalf("readJSON: %v", err)
	}
	if back.Requests != r.Requests || back.Ejects != r.Ejects ||
		len(back.Replicas) != len(r.Replicas) || back.Replicas[1].ProbeFailures != 3 {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, r)
	}
}

// TestGatewayReportValidateRejects drives each structural invariant.
func TestGatewayReportValidateRejects(t *testing.T) {
	cases := map[string]func(*GatewayReport){
		"wrong version":           func(r *GatewayReport) { r.Version = 99 },
		"no replicas":             func(r *GatewayReport) { r.Replicas = nil },
		"negative counter":        func(r *GatewayReport) { r.Requests = -1 },
		"replica without address": func(r *GatewayReport) { r.Replicas[0].Addr = "" },
		"probe failures exceed probes": func(r *GatewayReport) {
			r.Replicas[0].ProbeFailures = r.Replicas[0].Probes + 1
		},
		"readmits exceed ejects": func(r *GatewayReport) {
			r.Replicas[0].Readmits = r.Replicas[0].Ejects + 1
		},
		"census disagrees with totals": func(r *GatewayReport) { r.Ejects += 5 },
		"negative uptime":              func(r *GatewayReport) { r.UptimeSeconds = -1 },
		"p99 above max":                func(r *GatewayReport) { r.LatencySeconds.P99 = r.LatencySeconds.Max * 2 },
		"p50 above p95":                func(r *GatewayReport) { r.UpstreamSeconds.P50 = r.UpstreamSeconds.P95 * 1.5 },
	}
	for name, corrupt := range cases {
		r := sampleGatewayReport()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt report", name)
		}
	}
	var nilReport *GatewayReport
	if err := nilReport.Validate(); err == nil {
		t.Error("nil report validated")
	}
}

// TestGatewayReportReadRejectsCorrupt checks the reader refuses both
// non-JSON and structurally invalid payloads.
func TestGatewayReportReadRejectsCorrupt(t *testing.T) {
	if _, err := readJSON[GatewayReport](bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("reader accepted non-JSON")
	}
	if _, err := readJSON[GatewayReport](bytes.NewReader([]byte(`{"version":1,"replicas":[]}`))); err == nil {
		t.Error("reader accepted a report with no replicas")
	}
}
