package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/space"
)

// gccBodies returns the 1-row and 64-row predict bodies for model over
// the first design points of the gcc space, as clients send them.
func gccBodies(t testing.TB, model string) [][]byte {
	t.Helper()
	cfgs := space.Enumerate()
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = WireRow(cfgs[i].Row())
	}
	var out [][]byte
	for _, req := range []PredictRequest{{Model: model, Row: rows[0]}, {Model: model, Rows: rows}} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestScanEncodeZeroAlloc pins the replica's decode path — ScanPredict,
// pass 2 into warm scratch and EncodeRows — at zero allocations on gcc
// bodies, for an LR model (numeric-mapped categorical) and an NN model
// (one-hot categorical). Under -race the path still runs but the count
// is not asserted: sync.Pool drops puts there, so json.Valid's pooled
// scanner allocates by design.
func TestScanEncodeZeroAlloc(t *testing.T) {
	cfgs := space.Enumerate()
	var sample []space.MicroConfig
	var cycles []float64
	for i := 0; i < len(cfgs); i += 37 {
		c := cfgs[i]
		sample = append(sample, c)
		cycles = append(cycles, float64(1000+c.L1DSizeKB*3+c.L2SizeKB/8+c.Width*50+int(c.BPred)*70))
	}
	d, err := space.BuildDataset(sample, cycles)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, kind := range []core.ModelKind{core.LRB, core.NNS} {
		m, err := LoadModelFile(saveModel(t, dir, kind.String(), trainModel(t, kind, d)))
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range gccBodies(t, m.Name) {
			var ws rowScratch
			run := func() {
				q, err := ScanPredict(body)
				if err != nil {
					panic(err)
				}
				if _, err := q.encodeRows(&ws, m.Pred.Encoder(), m.labels); err != nil {
					panic(err)
				}
			}
			run()
			if raceEnabled {
				continue
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("%s, %d-byte body: scan and encode allocate %.1f/op, want 0", m.Name, len(body), allocs)
			}
		}
	}
}

// TestScanPredictRejects pins pass 1's error for a body json.Valid
// refuses: encoding/json's own error, wrapped, or trailing data after a
// valid value.
func TestScanPredictRejects(t *testing.T) {
	if _, err := ScanPredict([]byte(`{"model":"m","row":[1,`)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: got %v, want encoding/json's %v wrapped", err, io.ErrUnexpectedEOF)
	}
	var syntax *json.SyntaxError
	if _, err := ScanPredict([]byte(`{"model":"m","row":[1,x]}`)); !errors.As(err, &syntax) {
		t.Errorf("bad literal: got %v, want a wrapped *json.SyntaxError", err)
	}
	for _, body := range []string{`{"model":"m","row":[1]} junk`, `{"model":"m","row":[1]}]`} {
		if _, err := ScanPredict([]byte(body)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: got %v, want trailing data", body, err)
		}
	}
}

// TestScoreRequestMatchesServer pins the offline path to the daemon's:
// the same body scored by ScoreRequest and POSTed to /v1/predict answers
// with the same bytes.
func TestScoreRequestMatchesServer(t *testing.T) {
	s, d, dir := newTestServer(t)
	m, err := LoadModelFile(filepath.Join(dir, "nns.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := RequestFromDataset("nns", d, 8)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ScanPredict(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ScoreRequest(context.Background(), m, &q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := EncodeJSON(&want, resp); err != nil {
		t.Fatal(err)
	}
	if got := postPredict(t, s.Handler(), string(body)); got.Code != 200 || got.Body.String() != want.String() {
		t.Fatalf("daemon answered %d %s, offline %s", got.Code, got.Body, want.String())
	}
}
