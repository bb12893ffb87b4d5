package loadtest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/tree"
)

// fixtureModels maps registry names to the kinds a chaos run serves:
// one model per family stack (linear, neural, tree), so every batch
// kernel and encoder mode is under fire at once.
func fixtureModels() map[string]core.ModelKind {
	return map[string]core.ModelKind{
		"lre":   core.LRE,
		"nns":   core.NNS,
		"treeb": tree.KindTreeB,
	}
}

// synthSchema is the synthetic design-space schema chaos fixtures use —
// the same shape the serve tests exercise: two numerics, a flag, and a
// categorical with numeric levels (so both LR and NN encoders have work
// to do).
func synthSchema() (*dataset.Schema, error) {
	return dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
		dataset.Field{Name: "width", Kind: dataset.Numeric},
		dataset.Field{Name: "fast", Kind: dataset.Flag},
		dataset.Field{Name: "pred", Kind: dataset.Categorical, NumericLevels: map[string]float64{
			"weak": 1, "strong": 2,
		}},
	)
}

// synthRow draws one raw record and its target from the synthetic
// design-space response surface.
func synthRow(r *rand.Rand) ([]dataset.Value, float64) {
	size := 16 + float64(r.Intn(5))*16
	width := float64(2 + r.Intn(4)*2)
	fast := r.Intn(2) == 0
	pk := "weak"
	if r.Intn(2) == 0 {
		pk = "strong"
	}
	y := 10000/width + 2000*math.Exp(-size/32)
	if fast {
		y *= 0.9
	}
	if pk == "strong" {
		y *= 0.85
	}
	row := []dataset.Value{
		dataset.Num(size), dataset.Num(width), dataset.FlagVal(fast), dataset.Cat(pk),
	}
	return row, y
}

// synthDataset builds n synthetic training records.
func synthDataset(n int, seed int64) (*dataset.Dataset, error) {
	s, err := synthSchema()
	if err != nil {
		return nil, err
	}
	d := dataset.New(s)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		row, y := synthRow(r)
		if err := d.Append(row, y); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// evalRowSet draws n raw evaluation rows (targets discarded — the
// harness compares served predictions against offline scoring, not
// against ground truth).
func evalRowSet(n int, seed int64) [][]dataset.Value {
	rows := make([][]dataset.Value, n)
	r := rand.New(rand.NewSource(seed))
	for i := range rows {
		rows[i], _ = synthRow(r)
	}
	return rows
}

// fixture is the trained-and-served world of one chaos run: the model
// directory the daemon loads, the shared evaluation rows, and the
// offline golden predictions every 200 response is bit-compared to.
type fixture struct {
	dir    string
	models []string // sorted registry names
	rows   [][]dataset.Value
	golden map[string][]float64
}

// buildFixture trains one model per family on a synthetic dataset into
// dir and scores the evaluation rows' goldens. Golden scoring happens
// before any fault injector is activated, so goldens are never
// perturbed.
func buildFixture(dir string, seed int64, evalN int) (*fixture, error) {
	train, err := synthDataset(128, seed)
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, rows: evalRowSet(evalN, seed+1), golden: map[string][]float64{}}
	for name := range fixtureModels() {
		if fx.golden[name], err = trainArtifact(dir, name, train, seed, fx.rows); err != nil {
			return nil, err
		}
		fx.models = append(fx.models, name)
	}
	sort.Strings(fx.models)
	return fx, nil
}

// trainArtifact trains the fixture model name on train, saves its
// artifact into dir (overwriting any served one), and returns the
// golden predictions for rows, scored offline through PredictRowsInto
// by the artifact reloaded from disk: goldens score the exact bytes the
// registry serves, not the in-memory predictor.
func trainArtifact(dir, name string, train *dataset.Dataset, seed int64, rows [][]dataset.Value) ([]float64, error) {
	p, err := core.Train(context.Background(), fixtureModels()[name], train,
		core.TrainConfig{Seed: seed, Workers: 2, EpochScale: 0.2})
	if err != nil {
		return nil, fmt.Errorf("loadtest: training %s: %w", name, err)
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	loaded, err := core.LoadPredictorFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	if err := loaded.PredictRowsInto(engine.NewWorkerContext(context.Background()), out, rows); err != nil {
		return nil, fmt.Errorf("loadtest: golden scoring %s: %w", name, err)
	}
	return out, nil
}
