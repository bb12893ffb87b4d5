package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/faultinject"
)

// Model is one named predictor in the registry.
type Model struct {
	// Name is the registry name — the artifact's file name without its
	// .json extension.
	Name string
	// Path is the artifact file the model was loaded from.
	Path string
	// Pred is the loaded, validated predictor.
	Pred *core.Predictor
	// LoadedAt is when this artifact was (re)loaded.
	LoadedAt time.Time
	// labels interns the categorical labels Pred's encoder knows (see
	// dataset.Encoder.Labels) for the request decoder.
	labels map[string]string
}

// LoadModelFile loads and validates one serialized predictor file as a
// named model. It is the single loading path shared by the registry and
// the predict CLI, so both reject the same malformed artifacts with the
// same errors, and the serve.artifact_load fault point in front of the
// read lets chaos runs tear any reload.
func LoadModelFile(path string) (*Model, error) {
	if _, err := faultinject.Active().Hit(context.Background(), faultinject.ServeArtifactLoad); err != nil {
		return nil, fmt.Errorf("serve: loading model %s: %w", path, err)
	}
	p, err := core.LoadPredictorFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	if name == "" {
		return nil, fmt.Errorf("serve: model file %s has an empty name", path)
	}
	return &Model{Name: name, Path: path, Pred: p, LoadedAt: time.Now(), labels: p.Encoder().Labels()}, nil
}

// catalog is one immutable registry state. Readers resolve models
// against whichever catalog pointer they loaded; reloads build a whole
// new catalog and swap the pointer, so a lookup never sees a mix of old
// and new models.
type catalog struct {
	models map[string]*Model
	names  []string // sorted
	gen    int64
}

// Registry maps model names to loaded predictors, with atomic hot
// reload. Lookups are lock-free pointer loads; Reload serializes against
// itself, builds the next catalog from the directory, and installs it
// only if every artifact loads — a failed reload leaves the serving
// catalog untouched.
type Registry struct {
	dir string
	mu  sync.Mutex
	cur atomic.Pointer[catalog]
}

// OpenRegistry loads every *.json predictor in dir (generation 1). It
// fails if the directory cannot be read, any artifact is malformed, or
// no models are found — an empty serving daemon is a misconfiguration.
func OpenRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the registry's model directory.
func (r *Registry) Dir() string { return r.dir }

// Reload re-scans the directory and atomically swaps in the new catalog,
// returning the new generation. On any error the previous catalog keeps
// serving and the generation does not advance.
func (r *Registry) Reload() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return 0, fmt.Errorf("serve: reading model directory: %w", err)
	}
	models := make(map[string]*Model)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		m, err := LoadModelFile(filepath.Join(r.dir, e.Name()))
		if err != nil {
			return 0, err
		}
		models[m.Name] = m
	}
	if len(models) == 0 {
		return 0, fmt.Errorf("serve: no *.json models in %s", r.dir)
	}
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	gen := int64(1)
	if old := r.cur.Load(); old != nil {
		gen = old.gen + 1
	}
	r.cur.Store(&catalog{models: models, names: names, gen: gen})
	return gen, nil
}

// Resolve resolves a model by name together with the generation of the
// catalog it came from, in one atomic catalog load. The cache keys
// entries by (model, generation); resolving them separately (the model,
// then Generation) could straddle a reload and pair an old model with a new generation —
// exactly the stale-value hazard the generation key exists to prevent.
func (r *Registry) Resolve(name string) (*Model, int64, bool) {
	c := r.cur.Load()
	m, ok := c.models[name]
	return m, c.gen, ok
}

// Names lists the current catalog's model names, sorted.
func (r *Registry) Names() []string {
	return append([]string(nil), r.cur.Load().names...)
}

// Models lists the current catalog's models in name order.
func (r *Registry) Models() []*Model {
	c := r.cur.Load()
	out := make([]*Model, 0, len(c.names))
	for _, n := range c.names {
		out = append(out, c.models[n])
	}
	return out
}

// Generation returns the current catalog's reload generation (1 = the
// initial load).
func (r *Registry) Generation() int64 { return r.cur.Load().gen }
