package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/serve"
)

// rungSample bounds how many of the workload's bodies the offline rungs
// replay.
const rungSample = 512

// rungs times the replica's per-request steps offline, one public
// function at a time, on the workload's own predict bodies: strict JSON
// decode, schema resolve plus row check, the batch kernel at the
// workload's batch size, and the response encode.
func rungs(ctx context.Context, dir string, items []item) (map[string]float64, error) {
	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	var sample []*item
	for i := range items {
		if !items[i].reload() && len(sample) < rungSample {
			sample = append(sample, &items[i])
		}
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("no predict bodies to replay")
	}
	models := make([]*serve.Model, len(sample))
	reqs := make([]*serve.PredictRequest, len(sample))
	rows := make([][][]dataset.Value, len(sample))
	outs := make([][]float64, len(sample))
	nrows := 0
	for i, it := range sample {
		m, _, ok := reg.Resolve(fixtureModels[it.model].name)
		if !ok {
			return nil, fmt.Errorf("model %s not in registry", fixtureModels[it.model].name)
		}
		models[i] = m
		outs[i] = make([]float64, it.n)
		nrows += it.n
	}
	decode, err := perCall(len(sample), func() (err error) {
		for i, it := range sample {
			if reqs[i], err = serve.DecodePredictRequest(bytes.NewReader(it.body)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resolve, err := perCall(len(sample), func() (err error) {
		for i, req := range reqs {
			if rows[i], err = req.Resolve(models[i].Pred.Encoder().Schema()); err != nil {
				return err
			}
			if err = models[i].Pred.CheckRows(rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	wctx := engine.NewWorkerContext(ctx)
	predict, err := perCall(nrows, func() error {
		for i, m := range models {
			if err := m.Pred.PredictRowsInto(wctx, outs[i], rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	encode, err := perCall(len(sample), func() error {
		for i, req := range reqs {
			resp := serve.PredictResponse{
				Model:       req.Model,
				Kind:        models[i].Pred.Kind().String(),
				N:           len(outs[i]),
				Predictions: outs[i],
			}
			if req.Single() {
				resp.Prediction = &outs[i][0]
			}
			buf.Reset()
			if err := serve.EncodeJSON(&buf, resp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"serve.decode_us":         decode,
		"serve.resolve_us":        resolve,
		"core.predict_us_per_row": predict,
		"serve.encode_us":         encode,
	}, nil
}

// perCall repeats pass, which makes calls calls, for at least 100ms and
// returns the mean microseconds per call.
func perCall(calls int, pass func() error) (float64, error) {
	var total time.Duration
	n := 0
	for total < 100*time.Millisecond {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		total += time.Since(start)
		n += calls
	}
	return float64(total) / 1e3 / float64(n), nil
}
