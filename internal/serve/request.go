package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"perfpred/internal/dataset"
)

// Limits on untrusted /v1/predict bodies. MaxRequestBytes bounds the
// JSON body the server will read; MaxRowsPerRequest bounds how many rows
// one batch body may carry (larger sweeps should be paginated — one
// request is one admission-queue slot, and an unbounded body would let a
// single client monopolize a batch worker).
const (
	MaxRequestBytes   = 8 << 20
	MaxRowsPerRequest = 4096
)

// PredictRequest is the /v1/predict body as a client builds it — the
// batch JSON schema shared verbatim by the daemon and the predict CLI.
// Exactly one of Row (single point) or Rows (batch) must be set. Feature
// values are listed in schema field order: numbers for numeric fields,
// booleans for flags, strings for categoricals — the same column
// convention as the CSVs written by specgen / Dataset.WriteCSV, minus the
// target column. The serving path never decodes into it: replicas, the
// gateway and ScoreRequest read bodies with ScanPredict.
type PredictRequest struct {
	// Model names the registry model to score against.
	Model string `json:"model"`
	// Row is a single feature vector.
	Row []any `json:"row,omitempty"`
	// Rows is a batch of feature vectors.
	Rows [][]any `json:"rows,omitempty"`
}

// DecodePredictRequest strictly decodes a request body with
// encoding/json: unknown fields are rejected, numbers are kept as
// json.Number so overflowing literals (1e999) surface as validation
// errors instead of silently becoming ±Inf, and anything but whitespace
// after the JSON value is an error. It performs the structural checks
// that need no schema (model name present, exactly one of row/rows,
// row-count bounds); per-field validation happens in
// [PredictRequest.Resolve] once the schema is known.
//
// It is not the serving path. With Resolve it is the oracle the
// differential fuzz targets hold ScanPredict and the gateway's routing
// key to, and the decode rung the benchmark times.
func DecodePredictRequest(r io.Reader) (*PredictRequest, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxRequestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: reading predict request: %w", err)
	}
	if len(body) > MaxRequestBytes {
		return nil, fmt.Errorf("serve: predict request exceeds %d bytes", MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decoding predict request: %w", err)
	}
	// Decoder.More reports false before a closing delimiter, so it would
	// let `{...}]` through: every byte past the value must be whitespace.
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\n\r")) != 0 {
		return nil, errors.New("serve: predict request has trailing data after the JSON body")
	}
	if req.Model == "" {
		return nil, errors.New("serve: predict request has no model")
	}
	if (req.Row == nil) == (req.Rows == nil) {
		return nil, errors.New("serve: predict request must set exactly one of row, rows")
	}
	if req.Rows != nil {
		if len(req.Rows) == 0 {
			return nil, errors.New("serve: predict request rows is empty")
		}
		if len(req.Rows) > MaxRowsPerRequest {
			return nil, fmt.Errorf("serve: predict request has %d rows (max %d)", len(req.Rows), MaxRowsPerRequest)
		}
	}
	return &req, nil
}

// Single reports whether the request used the single-row form.
func (q *PredictRequest) Single() bool { return q.Row != nil }

// Resolve validates the request's feature values against a model's
// schema and converts them into record rows. Every error is a client
// error: wrong arity, wrong types, non-finite numbers. Like
// DecodePredictRequest it serves the differential fuzz and the
// benchmark's resolve rung, not the serving path.
func (q *PredictRequest) Resolve(s *dataset.Schema) ([][]dataset.Value, error) {
	raw := q.Rows
	if q.Row != nil {
		raw = [][]any{q.Row}
	}
	rows := make([][]dataset.Value, len(raw))
	for i, vals := range raw {
		row, err := s.RowFromAny(vals)
		if err != nil {
			return nil, fmt.Errorf("serve: row %d: %w", i, err)
		}
		rows[i] = row
	}
	return rows, nil
}

// PredictResponse is the /v1/predict response body.
type PredictResponse struct {
	// Model and Kind identify what scored the request.
	Model string `json:"model"`
	Kind  string `json:"kind"`
	// N is the number of scored rows.
	N int `json:"n"`
	// Prediction is set for single-row requests.
	Prediction *float64 `json:"prediction,omitempty"`
	// Predictions lists one prediction per request row, in order, in
	// original target units.
	Predictions []float64 `json:"predictions"`
}

// newPredictResponse assembles the response to a request in the single
// or batch form from m's predictions — the one builder the daemon and
// ScoreRequest share. A non-finite prediction has no JSON encoding and
// fails the whole request. It is a server error: an overflowing row is
// one cause, but an artifact with NaN weights gives the same symptom.
func newPredictResponse(single bool, m *Model, out []float64) (*PredictResponse, error) {
	for i, y := range out {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("serve: row %d produced a non-finite prediction", i)
		}
	}
	resp := &PredictResponse{
		Model:       m.Name,
		Kind:        m.Pred.Kind().String(),
		N:           len(out),
		Predictions: out,
	}
	if single {
		resp.Prediction = &out[0]
	}
	return resp, nil
}

// FieldInfo describes one schema field in a ModelInfo.
type FieldInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// ModelInfo is one registry entry in the /v1/models response — enough
// schema for a client to build valid predict requests.
type ModelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Family is the model's versioned family artifact tag (e.g.
	// "linreg/v1", "tree/v1") from the registry descriptor.
	Family   string      `json:"family"`
	Target   string      `json:"target"`
	Fields   []FieldInfo `json:"fields"`
	Columns  int         `json:"columns"`
	LoadedAt string      `json:"loaded_at"`
}

// ModelsResponse is the /v1/models response body.
type ModelsResponse struct {
	Generation int64       `json:"generation"`
	Models     []ModelInfo `json:"models"`
}

// ReloadResponse is the /admin/reload response body.
type ReloadResponse struct {
	Generation int64    `json:"generation"`
	Models     []string `json:"models"`
}

// ErrorResponse is the JSON error envelope for non-2xx responses.
type ErrorResponse struct {
	Error string `json:"error"`
}

// infoFor summarizes a registry model for /v1/models.
func infoFor(m *Model) ModelInfo {
	s := m.Pred.Encoder().Schema()
	fields := make([]FieldInfo, len(s.Fields))
	for i, f := range s.Fields {
		fields[i] = FieldInfo{Name: f.Name, Kind: f.Kind.String()}
	}
	return ModelInfo{
		Name:     m.Name,
		Kind:     m.Pred.Kind().String(),
		Family:   m.Pred.Kind().Tag(),
		Target:   s.Target,
		Fields:   fields,
		Columns:  m.Pred.Encoder().NumColumns(),
		LoadedAt: m.LoadedAt.UTC().Format("2006-01-02T15:04:05Z"),
	}
}
