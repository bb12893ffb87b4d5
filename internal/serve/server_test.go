package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
	"perfpred/internal/obs"
)

// newTestServer trains two models into a fresh directory and builds a
// Server over them.
func newTestServer(t testing.TB) (*Server, *dataset.Dataset, string) {
	t.Helper()
	d := synthDataset(t, 64, 6)
	dir := t.TempDir()
	saveModel(t, dir, "lre", trainModel(t, core.LRE, d))
	saveModel(t, dir, "nns", trainModel(t, core.NNS, d))
	s, err := New(Config{ModelsDir: dir, Batcher: BatcherConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, d, dir
}

// rowJSON renders dataset row i in the request wire format.
func rowJSON(d *dataset.Dataset, i int) []any {
	row := d.Row(i)
	out := make([]any, len(row))
	for j, v := range row {
		switch v.Kind() {
		case dataset.Numeric:
			out[j] = v.Float()
		case dataset.Flag:
			out[j] = v.Bool()
		default:
			out[j] = v.Label()
		}
	}
	return out
}

func postPredict(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerPredictSingleAndBatch(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()
	m, _, _ := s.Registry().Resolve("nns")

	// Single-row body, bit-identical to the offline scalar path.
	want, err := m.Pred.Predict(d.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	w := postPredict(t, h, map[string]any{"model": "nns", "row": rowJSON(d, 0)})
	if w.Code != http.StatusOK {
		t.Fatalf("single predict: %d %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 1 || resp.Prediction == nil || *resp.Prediction != want || resp.Kind != "NN-S" {
		t.Fatalf("single predict: %+v, want prediction %v", resp, want)
	}

	// Batch body, bit-identical to offline PredictAll over the dataset.
	rows := make([][]any, d.Len())
	for i := range rows {
		rows[i] = rowJSON(d, i)
	}
	offline, err := m.Pred.PredictDataset(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	w = postPredict(t, h, map[string]any{"model": "nns", "rows": rows})
	if w.Code != http.StatusOK {
		t.Fatalf("batch predict: %d %s", w.Code, w.Body)
	}
	resp = PredictResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != d.Len() || resp.Prediction != nil {
		t.Fatalf("batch predict: n=%d prediction=%v", resp.N, resp.Prediction)
	}
	for i := range offline {
		if resp.Predictions[i] != offline[i] {
			t.Fatalf("batch row %d: served %v != offline %v", i, resp.Predictions[i], offline[i])
		}
	}
}

func TestServerPredictErrors(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()
	good := rowJSON(d, 0)
	short := good[:2]
	cases := []struct {
		name string
		body any
		code int
		want string
	}{
		{"malformed json", `{"model": "nns", "row": [`, http.StatusBadRequest, "decoding"},
		{"no model", map[string]any{"row": good}, http.StatusBadRequest, "no model"},
		{"row and rows", map[string]any{"model": "nns", "row": good, "rows": [][]any{good}}, http.StatusBadRequest, "exactly one"},
		{"neither row nor rows", map[string]any{"model": "nns"}, http.StatusBadRequest, "exactly one"},
		{"empty rows", map[string]any{"model": "nns", "rows": [][]any{}}, http.StatusBadRequest, "empty"},
		{"unknown field", map[string]any{"model": "nns", "row": good, "extra": 1}, http.StatusBadRequest, "unknown field"},
		{"unknown model", map[string]any{"model": "nope", "row": good}, http.StatusNotFound, "unknown model"},
		{"wrong arity", map[string]any{"model": "nns", "row": short}, http.StatusBadRequest, "2 values"},
		{"wrong type", map[string]any{"model": "nns", "row": []any{"x", 4.0, true, "weak"}}, http.StatusBadRequest, "field"},
		{"inf literal", `{"model": "nns", "row": [1e999, 4, true, "weak"]}`, http.StatusBadRequest, "non-finite"},
		{"trailing data", `{"model": "nns", "row": [32, 4, true, "weak"]} junk`, http.StatusBadRequest, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPredict(t, h, tc.body)
			if w.Code != tc.code {
				t.Fatalf("code = %d, want %d (%s)", w.Code, tc.code, w.Body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body: %s", w.Body)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not contain %q", e.Error, tc.want)
			}
		})
	}

	// GET on /v1/predict is rejected by the method-scoped route.
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict = %d, want 405", w.Code)
	}
}

func TestServerModelsAndMetrics(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/models: %d", w.Code)
	}
	var mr ModelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Generation != 1 || len(mr.Models) != 2 {
		t.Fatalf("/v1/models: %+v", mr)
	}
	if mr.Models[0].Name != "lre" || mr.Models[0].Kind != "LR-E" || mr.Models[0].Target != "cycles" {
		t.Fatalf("model info: %+v", mr.Models[0])
	}
	if len(mr.Models[0].Fields) != 4 || mr.Models[0].Fields[0].Name != "size" || mr.Models[0].Fields[0].Kind != "numeric" {
		t.Fatalf("schema fields: %+v", mr.Models[0].Fields)
	}

	// A prediction moves the serve counters visible on /metrics.
	postPredict(t, h, map[string]any{"model": "lre", "row": rowJSON(d, 1)})
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	// The latency histogram is observed as the handler returns, so the
	// request just served is counted by now.
	for _, line := range []string{
		"perfpred_serve_requests 1", "perfpred_serve_predictions 1",
		"# TYPE perfpred_serve_latency_seconds summary", "perfpred_serve_latency_seconds_count 1",
	} {
		if !strings.Contains(w.Body.String(), "\n"+line+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", line, w.Body)
		}
	}
}

func TestServerReloadEndpoint(t *testing.T) {
	s, d, dir := newTestServer(t)
	h := s.Handler()

	saveModel(t, dir, "extra", trainModel(t, core.LRB, d))
	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/admin/reload: %d %s", w.Code, w.Body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Generation != 2 || len(rr.Models) != 3 {
		t.Fatalf("reload: %+v", rr)
	}
	if _, _, ok := s.Registry().Resolve("extra"); !ok {
		t.Fatal("reloaded model not served")
	}

	// A failed reload reports 500 and keeps serving generation 2.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("failed reload: %d", w.Code)
	}
	if s.Registry().Generation() != 2 {
		t.Fatalf("generation = %d after failed reload", s.Registry().Generation())
	}
}

func TestServerReportEndpoint(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()
	s.SetAddr("127.0.0.1:0")
	postPredict(t, h, map[string]any{"model": "nns", "row": rowJSON(d, 2)})

	req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/report: %d", w.Code)
	}
	rep, err := obs.ReadJSON[Report](w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 || rep.Predictions != 1 || rep.Addr != "127.0.0.1:0" || len(rep.Models) != 2 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestServerShedMapsTo429 wires a blocking scorer behind the HTTP
// surface and pins the load-shedding contract: 429, Retry-After header,
// JSON error body. Each request carries a distinct row, so none can be
// answered from the cache instead of filling the queue.
func TestServerShedMapsTo429(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()

	// Swap in a tiny batcher whose single worker blocks until released.
	s.bat.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	score := func(_ context.Context, _ *Model, rows [][]float64, out []float64) error {
		entered <- struct{}{}
		<-release
		for i := range out {
			out[i] = 1
		}
		return nil
	}
	s.bat = newBatcher(BatcherConfig{QueueDepth: 1, MaxBatch: 1, Workers: 1}, s.met, score)
	defer func() { close(release); s.bat.Close() }()

	body := func(size float64) map[string]any {
		row := rowJSON(d, 0)
		row[0] = size
		return map[string]any{"model": "nns", "row": row}
	}
	done := make(chan *httptest.ResponseRecorder, 2)
	// One request occupies the worker, one fills the queue.
	go func() { done <- postPredict(t, h, body(16)) }()
	<-entered
	go func() { done <- postPredict(t, h, body(32)) }()
	deadline := time.After(5 * time.Second)
	for len(s.bat.queue) < 1 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The next request is shed: the queue (capacity 1) is full, and a
	// shed always advertises the constant 5 s back-off.
	w := postPredict(t, h, body(48))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded predict: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") != "5" {
		t.Fatalf("Retry-After = %q, want 5", w.Header().Get("Retry-After"))
	}
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("shed body: %s (%v)", w.Body, err)
	}
}

// TestServerFlushErrorMapsTo500 pins the HTTP face of a failed group:
// an injected serve.batch_flush error turns every request gathered into
// that group into a 500 carrying the error, each counted once in
// serve.errors, while the request scored before the fault is a 200.
func TestServerFlushErrorMapsTo500(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()

	s.bat.Close()
	hb := newHeldBatcher(t, BatcherConfig{QueueDepth: 8, MaxBatch: 64}, s.met)
	s.bat = hb.Batcher
	body := func(size float64) map[string]any {
		row := rowJSON(d, 0)
		row[0] = size
		return map[string]any{"model": "nns", "row": row}
	}
	done := make(chan *httptest.ResponseRecorder, 4)
	go func() { done <- postPredict(t, h, body(16)) }()
	<-hb.entered
	// Arm the fault while the worker is parked past the held request's
	// flush hook, before any later request reads it.
	hb.fi = faultinject.New(map[faultinject.Point]faultinject.Plan{
		faultinject.ServeBatchFlush: {Every: 1, Err: errors.New("injected flush failure")},
	})
	for i := 1; i <= 3; i++ {
		go func() { done <- postPredict(t, h, body(16*float64(i+1))) }()
		hb.waitQueued(t, i)
	}
	hb.free()

	codes := map[int]int{}
	for range 4 {
		w := <-done
		codes[w.Code]++
		if w.Code == http.StatusInternalServerError {
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error != "injected flush failure" {
				t.Fatalf("500 body: %s (%v)", w.Body, err)
			}
		}
	}
	if codes[http.StatusOK] != 1 || codes[http.StatusInternalServerError] != 3 {
		t.Fatalf("status counts %v, want one 200 and three 500s", codes)
	}
	if got := s.met.errors.Value(); got != 3 {
		t.Fatalf("serve.errors = %d, want 3", got)
	}
	if got := s.met.requests.Value(); got != 4 {
		t.Fatalf("serve.requests = %d, want 4", got)
	}
}

func TestServerHealthz(t *testing.T) {
	s, _, _ := newTestServer(t)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %s", w.Code, w.Body)
	}
}

// TestServerPreEnqueueValidation pins the client-error/server-error
// boundary: rows that cannot be scored against a *known* model — wrong
// width for the fitted schema, categories with no numeric mapping — are
// rejected with 400 by the encode step before admission. The serve.requests
// counter only moves after validation, so an unchanged counter proves
// the bad request never occupied a queue slot or reached a kernel.
func TestServerPreEnqueueValidation(t *testing.T) {
	s, d, _ := newTestServer(t)
	h := s.Handler()
	good := rowJSON(d, 0)
	wide := append(append([]any{}, good...), 1.0)
	alien := append([]any{}, good...)
	alien[3] = "alien" // categorical field with NumericLevels {weak, strong}

	cases := []struct {
		name string
		body any
		want string
	}{
		{"single row too wide", map[string]any{"model": "nns", "row": wide}, "5 values"},
		{"batch row too wide", map[string]any{"model": "nns", "rows": [][]any{good, wide}}, "row 1"},
		{"unmapped category on LR model", map[string]any{"model": "lre", "row": alien}, "no numeric mapping"},
		{"unmapped category in batch", map[string]any{"model": "lre", "rows": [][]any{alien, good}}, "no numeric mapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.met.requests.Value()
			w := postPredict(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400 (%s)", w.Code, w.Body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body: %s", w.Body)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not contain %q", e.Error, tc.want)
			}
			if after := s.met.requests.Value(); after != before {
				t.Errorf("requests counter moved %d -> %d: invalid request was admitted", before, after)
			}
			if errs := s.met.errors.Value(); errs != 0 {
				t.Errorf("errors counter = %d: validation failure reached the scoring path", errs)
			}
		})
	}

	// The same category IS valid for the one-hot NN encoder (an unseen
	// category encodes as all-zero indicators), so the 400 above must be
	// the LR mapping check, not a blanket category whitelist.
	w := postPredict(t, h, map[string]any{"model": "nns", "row": alien})
	if w.Code != http.StatusOK {
		t.Fatalf("unseen category on one-hot model = %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestServerNonFinitePredictionCounted pins the one client-triggerable
// server error: a finite but huge row overflows the linear model to a
// non-finite prediction. It stays a 500 (an artifact with NaN weights
// gives the same symptom, which is not the client's fault), and unlike
// a client error it is admitted, so serve.errors records it.
func TestServerNonFinitePredictionCounted(t *testing.T) {
	s, d, _ := newTestServer(t)
	row := rowJSON(d, 0)
	row[0], row[1] = 1e308, 1e308
	w := postPredict(t, s.Handler(), map[string]any{"model": "lre", "row": row})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500 (%s)", w.Code, w.Body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "non-finite") {
		t.Fatalf("error body: %s (%v)", w.Body, err)
	}
	if got := s.met.requests.Value(); got != 1 {
		t.Errorf("requests counter = %d, want 1", got)
	}
	if got := s.met.errors.Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1: the 500 went unrecorded", got)
	}
}

// TestWritePredictErrorRetryAfterHeader pins the exact Retry-After the
// HTTP layer emits for shed errors: a shed means the queue was full, so
// ErrOverloaded, bare or wrapped, is always a 429 with a 5 s back-off.
func TestWritePredictErrorRetryAfterHeader(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		want  string
		wants int
	}{
		{"bare sentinel", ErrOverloaded, "5", http.StatusTooManyRequests},
		{"wrapped", fmt.Errorf("admit: %w", ErrOverloaded), "5", http.StatusTooManyRequests},
	}
	s := &Server{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			s.writePredictError(w, tc.err)
			if w.Code != tc.wants {
				t.Fatalf("code = %d, want %d", w.Code, tc.wants)
			}
			if got := w.Header().Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After = %q, want %q", got, tc.want)
			}
		})
	}
}
