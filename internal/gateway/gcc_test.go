package gateway

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/serve"
	"perfpred/internal/space"
)

// gccBodies returns 1-row and 64-row predict bodies over the first
// design points of the gcc space, as clients send them.
func gccBodies(t testing.TB) [][]byte {
	t.Helper()
	cfgs := space.Enumerate()
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = serve.WireRow(cfgs[i].Row())
	}
	var out [][]byte
	for _, req := range []serve.PredictRequest{{Model: "lrb", Row: rows[0]}, {Model: "lrb", Rows: rows}} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// newGCCReplica boots a real serving replica with one LR-B model, "lrb",
// trained on a sample of the gcc space against a synthetic target.
func newGCCReplica(t testing.TB) *serve.Server {
	t.Helper()
	cfgs := space.Enumerate()
	var sample []space.MicroConfig
	var cycles []float64
	for i := 0; i < len(cfgs); i += 37 {
		sample = append(sample, cfgs[i])
		cycles = append(cycles, float64(1000+cfgs[i].L1DSizeKB*3+cfgs[i].Width*50))
	}
	d, err := space.BuildDataset(sample, cycles)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Train(context.Background(), core.LRB, d, core.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "lrb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{ModelsDir: dir, Batcher: serve.BatcherConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}
