package serve

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
)

// synthDataset builds a small synthetic design-space dataset covering
// all three field kinds.
func synthDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	s, err := dataset.NewSchema("cycles",
		dataset.Field{Name: "size", Kind: dataset.Numeric},
		dataset.Field{Name: "width", Kind: dataset.Numeric},
		dataset.Field{Name: "fast", Kind: dataset.Flag},
		dataset.Field{Name: "pred", Kind: dataset.Categorical, NumericLevels: map[string]float64{
			"weak": 1, "strong": 2,
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New(s)
	r := rand.New(rand.NewSource(seed))
	preds := []string{"weak", "strong"}
	for i := 0; i < n; i++ {
		size := 16 + float64(r.Intn(5))*16
		width := float64(2 + r.Intn(4)*2)
		fast := r.Intn(2) == 0
		pk := preds[r.Intn(2)]
		y := 10000/width + 2000*math.Exp(-size/32)
		if fast {
			y *= 0.9
		}
		if pk == "strong" {
			y *= 0.85
		}
		err := d.Append([]dataset.Value{
			dataset.Num(size), dataset.Num(width), dataset.FlagVal(fast), dataset.Cat(pk),
		}, y)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// trainModel trains a quick model for serving tests.
func trainModel(t testing.TB, kind core.ModelKind, d *dataset.Dataset) *core.Predictor {
	t.Helper()
	p, err := core.Train(context.Background(), kind, d, core.TrainConfig{Seed: 3, Workers: 2, EpochScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// saveModel writes a predictor artifact named name into dir.
func saveModel(t testing.TB, dir, name string, p *core.Predictor) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryLoadAndGet(t *testing.T) {
	d := synthDataset(t, 64, 1)
	dir := t.TempDir()
	saveModel(t, dir, "lre", trainModel(t, core.LRE, d))
	saveModel(t, dir, "nns", trainModel(t, core.NNS, d))
	// Non-model files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "lre" || got[1] != "nns" {
		t.Fatalf("Names() = %v, want [lre nns]", got)
	}
	if r.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", r.Generation())
	}
	m, gen, ok := r.Resolve("nns")
	if !ok || m.Pred.Kind() != core.NNS || m.Name != "nns" || gen != 1 {
		t.Fatalf("Resolve(nns) = %+v, %d, %v", m, gen, ok)
	}
	if _, _, ok := r.Resolve("absent"); ok {
		t.Fatal("Resolve(absent) succeeded")
	}
}

func TestRegistryReloadAtomic(t *testing.T) {
	d := synthDataset(t, 64, 2)
	dir := t.TempDir()
	saveModel(t, dir, "a", trainModel(t, core.LRE, d))
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A new artifact appears on reload.
	saveModel(t, dir, "b", trainModel(t, core.LRB, d))
	gen, err := r.Reload()
	if err != nil || gen != 2 {
		t.Fatalf("Reload = %d, %v; want 2, nil", gen, err)
	}
	if _, _, ok := r.Resolve("b"); !ok {
		t.Fatal("reloaded model b missing")
	}

	// A corrupt artifact fails the reload and keeps the old catalog.
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload(); err == nil {
		t.Fatal("reload with corrupt artifact succeeded")
	}
	if r.Generation() != 2 {
		t.Fatalf("generation moved to %d after failed reload", r.Generation())
	}
	if _, _, ok := r.Resolve("a"); !ok {
		t.Fatal("old catalog lost after failed reload")
	}
}

func TestOpenRegistryRejectsEmpty(t *testing.T) {
	_, err := OpenRegistry(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "no *.json models") {
		t.Fatalf("empty dir: err = %v", err)
	}
	if _, err := OpenRegistry(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestLoadModelFileNamesAndValidates(t *testing.T) {
	d := synthDataset(t, 64, 3)
	dir := t.TempDir()
	path := saveModel(t, dir, "my-model", trainModel(t, core.LRE, d))
	m, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "my-model" || m.Path != path {
		t.Fatalf("LoadModelFile: %+v", m)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(filepath.Join(dir, "junk.json")); err == nil {
		t.Fatal("junk artifact accepted")
	}
}
