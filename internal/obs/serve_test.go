package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMetricsServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricTasksDone).Add(7)
	addr, shutdown, err := StartMetricsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); path == "/metrics" && ct != "text/plain; version=0.0.4" {
			t.Fatalf("GET /metrics: Content-Type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if m := get("/metrics"); !strings.Contains(m, "\nperfpred_engine_tasks_done 7\n") {
		t.Errorf("/metrics missing the counter:\n%s", m)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars missing memstats: %d vars", len(vars))
	}

	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.300s", body)
	}
}

// TestMetricsHandlerServesOwnRegistry builds two handlers in one
// process: each /metrics must show its own registry and none of the
// other's, whichever handler was built last.
func TestMetricsHandlerServesOwnRegistry(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("only.a").Add(1)
	b.Counter("only.b").Add(2)
	ha, hb := MetricsHandler(a), MetricsHandler(b)
	for _, tc := range []struct {
		h    http.Handler
		want map[string]float64
	}{{ha, map[string]float64{"perfpred_only_a": 1}}, {hb, map[string]float64{"perfpred_only_b": 2}}} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if got := checkExposition(t, rec.Body.String()); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("/metrics samples = %v, want %v", got, tc.want)
		}
	}
}

// Prometheus text exposition format, version 0.0.4, as WritePrometheus
// emits it: TYPE comment lines and samples with at most a quantile label.
var (
	promTypeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary)$`)
	promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{quantile="(0\.5|0\.95|0\.99)"\})? (\S+)$`)
)

// checkExposition parses text line by line against the exposition
// grammar and returns the samples keyed by name plus label set. Every
// sample must belong to the family its preceding TYPE line declared, no
// family may be declared twice, and every summary must carry its three
// quantiles, _sum and _count.
func checkExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition does not end in a newline: %q", text)
	}
	samples := map[string]float64{}
	declared := map[string]bool{}
	var family, kind string
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := promTypeLine.FindStringSubmatch(line); m != nil {
			if declared[m[1]] {
				t.Fatalf("line %d: family %s declared twice", i+1, m[1])
			}
			family, kind, declared[m[1]] = m[1], m[2], true
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d does not match the exposition grammar: %q", i+1, line)
		}
		name, labels, value := m[1], m[2], m[4]
		ok := name == family && (labels == "") == (kind != "summary")
		if kind == "summary" && labels == "" {
			ok = name == family+"_sum" || name == family+"_count"
		}
		if !ok {
			t.Fatalf("line %d: sample %q outside its %s family %s", i+1, line, kind, family)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, value, err)
		}
		if _, dup := samples[name+labels]; dup {
			t.Fatalf("line %d: duplicate sample %s", i+1, name+labels)
		}
		samples[name+labels] = v
	}
	for name := range declared {
		_, hasCount := samples[name+"_count"]
		_, hasP99 := samples[name+`{quantile="0.99"}`]
		if _, plain := samples[name]; !plain && !(hasCount && hasP99) {
			t.Errorf("family %s has no samples", name)
		}
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.requests").Add(3)
	reg.Counter("odd name-with/chars").Inc()
	reg.Gauge("serve.queue_depth").Set(-1.5)
	reg.Gauge("inf").Set(math.Inf(1))
	for _, v := range []float64{0.001, 0.002, 0.004} {
		reg.Histogram("serve.latency_seconds").Observe(v)
	}
	reg.Histogram("empty.seconds")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := checkExposition(t, buf.String())
	h := reg.Histogram("serve.latency_seconds").Snapshot()
	for key, want := range map[string]float64{
		"perfpred_serve_requests":                         3,
		"perfpred_odd_name_with_chars":                    1,
		"perfpred_serve_queue_depth":                      -1.5,
		"perfpred_inf":                                    math.Inf(1),
		`perfpred_serve_latency_seconds{quantile="0.5"}`:  h.P50,
		`perfpred_serve_latency_seconds{quantile="0.95"}`: h.P95,
		`perfpred_serve_latency_seconds{quantile="0.99"}`: h.P99,
		"perfpred_serve_latency_seconds_sum":              h.Sum,
		"perfpred_serve_latency_seconds_count":            3,
		"perfpred_empty_seconds_count":                    0,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
	if v := got[`perfpred_empty_seconds{quantile="0.5"}`]; !math.IsNaN(v) {
		t.Errorf("empty summary quantile = %v, want NaN", v)
	}
	if !strings.Contains(buf.String(), "# TYPE perfpred_serve_latency_seconds summary\n") {
		t.Errorf("histogram not exposed as a summary:\n%s", buf.String())
	}
}
