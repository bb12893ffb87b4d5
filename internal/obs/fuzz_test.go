package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReportRoundTrip feeds arbitrary bytes to the report reader. Any
// input the reader accepts must survive a full encode/decode cycle
// unchanged — the regression-test harness depends on report files being
// a faithful, stable serialization. Seed inputs live both here and in
// testdata/fuzz/FuzzReportRoundTrip (the checked-in corpus).
func FuzzReportRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"command":"chrono","seed":7,"workers":0}`))
	f.Add([]byte(`{"version":1,"command":"dse","models":[{"kind":"NN-E","true_mape":1e308}]}`))
	f.Add([]byte(`{"version":2,"command":"dse"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only requirement is no panic
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatalf("accepted report failed to re-encode: %v\ninput: %q", err, data)
		}
		again, err := ReadReport(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded report rejected: %v\nencoded: %s", err, out.String())
		}
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("round trip not stable:\nfirst  %+v\nsecond %+v", rep, again)
		}
	})
}

// FuzzMetricsSnapshotJSON guards the registry snapshot's JSON form (the
// snapshot /metrics renders). Arbitrary snapshots must
// decode without panicking, and decodable ones must re-encode.
func FuzzMetricsSnapshotJSON(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("engine.tasks.done").Add(3)
	reg.Histogram("engine.task_seconds").Observe(0.5)
	seed, err := json.Marshal(reg.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"counters":{"a":1},"histograms":{"h":{"count":2,"sum":3,"p50":1.5}}}`)
	f.Add(`{"gauges":{"g":-0.5}}`)
	f.Add(`[]`)

	f.Fuzz(func(t *testing.T, data string) {
		var snap MetricsSnapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			return
		}
		if _, err := json.Marshal(snap); err != nil {
			// NaN/Inf cannot arrive via JSON, so re-encoding must work.
			if !strings.Contains(err.Error(), "unsupported value") {
				t.Fatalf("snapshot failed to re-encode: %v", err)
			}
		}
	})
}
