package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"perfpred/internal/dataset"
)

// EncodeJSON writes v in the daemon's wire encoding (two-space indent,
// trailing newline) so CLI output and HTTP bodies are byte-comparable.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WireRow renders one dataset row in the predict wire format: numbers
// for numerics, booleans for flags, strings for categoricals, in field
// order.
func WireRow(row []dataset.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case dataset.Numeric:
			out[i] = v.Float()
		case dataset.Flag:
			out[i] = v.Bool()
		default:
			out[i] = v.Label()
		}
	}
	return out
}

// RequestFromDataset builds the wire-format predict request for the
// first n rows of a dataset (all rows when n <= 0 or exceeds the
// dataset) — how the predict CLI and the e2e smoke test derive real
// request bodies from specgen/WriteCSV data instead of hand-writing
// JSON.
func RequestFromDataset(model string, d *dataset.Dataset, n int) (*PredictRequest, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("serve: empty dataset")
	}
	if n <= 0 || n > d.Len() {
		n = d.Len()
	}
	if n > MaxRowsPerRequest {
		n = MaxRowsPerRequest
	}
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		rows[i] = WireRow(d.Row(i))
	}
	if n == 1 {
		return &PredictRequest{Model: model, Row: rows[0]}, nil
	}
	return &PredictRequest{Model: model, Rows: rows}, nil
}

// ScoreRequest scores a scanned request directly against a loaded
// model — the offline path the predict CLI shares with the daemon: the
// same two-pass scanner, the same validation and encoding, the same
// kernel entry (PredictEncodedInto), so a request file
// scored locally and the same body POSTed to /v1/predict return
// bit-identical predictions. The response names m whatever model the
// request named.
func ScoreRequest(ctx context.Context, m *Model, req *ScannedRequest) (*PredictResponse, error) {
	var ws rowScratch
	rows, err := req.encodeRows(&ws, m.Pred.Encoder(), m.labels)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	if err := m.Pred.PredictEncodedInto(ctx, out, rows); err != nil {
		return nil, err
	}
	return newPredictResponse(req.Single, m, out)
}
