package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/obs"
	"perfpred/internal/predcache"
)

// Config configures a serving daemon.
type Config struct {
	// ModelsDir is the directory of *.json predictor artifacts.
	ModelsDir string
	// Batcher sizes the micro-batcher.
	Batcher BatcherConfig
	// RequestTimeout is the per-request deadline applied to every
	// admitted prediction (propagated through the batcher via the
	// request context). 0 means DefaultConfig's 5s.
	RequestTimeout time.Duration
	// CacheEntries bounds the prediction cache every request goes
	// through; 0 or less means DefaultCacheEntries.
	CacheEntries int
}

// DefaultConfig returns perfpredd's defaults (ModelsDir aside). New
// fills zero fields from the same values.
func DefaultConfig() Config {
	return Config{
		Batcher: BatcherConfig{
			QueueDepth: 256,
			MaxBatch:   64,
			Workers:    runtime.GOMAXPROCS(0),
		},
		RequestTimeout: 5 * time.Second,
		CacheEntries:   DefaultCacheEntries,
	}
}

// Server is the serving daemon: registry + micro-batcher + HTTP surface.
type Server struct {
	cfg     Config
	reg     *Registry
	met     *metrics
	bat     *Batcher
	cache   *predcache.Cache
	scratch sync.Pool // *rowScratch
	mux     *http.ServeMux
	started time.Time
	addr    atomic.Value // string; bound listen address, set by the daemon
	// fi is the fault injector active at construction (the no-op
	// singleton in production — see Batcher).
	fi *faultinject.Injector
}

// New loads the model directory and starts the batch workers. The
// returned server's Handler can be mounted on any http.Server; call
// Close to drain.
func New(cfg Config) (*Server, error) {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultConfig().RequestTimeout
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	reg, err := OpenRegistry(cfg.ModelsDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		met:     newMetrics(),
		started: time.Now(),
		fi:      faultinject.Active(),
	}
	s.bat = newBatcher(cfg.Batcher, s.met, scoreModel)
	s.cache = predcache.New(cfg.CacheEntries, s.met.reg)
	s.scratch.New = func() any { return new(rowScratch) }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mh := obs.MetricsHandler(s.met.reg)
	s.mux.Handle("/metrics", mh)
	s.mux.Handle("/debug/", mh)
	return s, nil
}

// scoreModel is the production scoreFunc: the shared zero-allocation
// batch kernel entry.
func scoreModel(ctx context.Context, m *Model, rows [][]float64, out []float64) error {
	return m.Pred.PredictEncodedInto(ctx, out, rows)
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (signal handlers trigger reloads
// through it).
func (s *Server) Registry() *Registry { return s.reg }

// SetAddr records the bound listen address for reports.
func (s *Server) SetAddr(addr string) { s.addr.Store(addr) }

// Close drains the micro-batcher: admission stops and every queued
// request is answered before Close returns. Call after the HTTP server
// has stopped accepting requests.
func (s *Server) Close() { s.bat.Close() }

// Reload atomically swaps in a fresh catalog from the model directory,
// counting successful reloads. The reload fault point (plus artifact-
// load faults inside the registry's per-file loader) lets chaos runs
// fail reloads at will; either way a failed reload must leave the
// previous catalog serving, which the registry guarantees by swapping
// only a fully-built catalog.
func (s *Server) Reload() (int64, error) {
	if fired, err := s.fi.Hit(context.Background(), faultinject.ServeReload); fired {
		s.met.faults.Inc()
		if err != nil {
			return 0, err
		}
	}
	gen, err := s.reg.Reload()
	if err == nil {
		s.met.reloads.Inc()
		// Entries keyed by older generations are already unreachable (the
		// generation is part of the cache key); dropping them now reclaims
		// their memory instead of waiting on LRU pressure.
		s.cache.Invalidate(gen)
	}
	return gen, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.met.latency.Observe(time.Since(start).Seconds()) }()

	ws := s.scratch.Get().(*rowScratch)
	req, err := ws.scan(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.scratch.Put(ws)
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve model and catalog generation from one atomic catalog load:
	// the cache keys entries by (model, generation), and resolving them
	// separately could straddle a reload.
	m, gen, ok := s.reg.Resolve(string(req.Model))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown model %q (see /v1/models)", req.Model))
		s.scratch.Put(ws)
		return
	}
	// Each row is resolved and encoded exactly once, here, before
	// admission: a bad cell or an unmapped category is a 400 that never
	// occupies a queue slot, and the encoded rows are both the cache keys
	// and the batcher's payload.
	rows, err := req.encodeRows(ws, m.Pred.Encoder(), m.labels)
	if err != nil {
		s.scratch.Put(ws)
		WriteError(w, http.StatusBadRequest, err)
		return
	}

	s.met.requests.Inc()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if cap(ws.out) < len(rows) {
		ws.out = make([]float64, len(rows))
	}
	out := ws.out[:len(rows)]
	if err := s.predictInto(ctx, ws, m, gen, rows, out); err != nil {
		// ws stays out of the pool: a queued batch may still read its rows.
		s.writePredictError(w, err)
		return
	}
	if resp, err := newPredictResponse(req.Single, m, out); err != nil {
		s.met.errors.Inc()
		WriteError(w, http.StatusInternalServerError, err)
	} else {
		writeJSON(w, http.StatusOK, resp)
	}
	s.scratch.Put(ws)
}

// writePredictError maps batcher/scoring failures onto HTTP statuses:
// shed → 429 with Retry-After: 5, drain → 503, deadline → 504. Anything
// else is a genuine server-side failure (client-caused errors are all
// rejected with 400s before admission by the encode step) and reports
// 500 — injected batch-flush faults in chaos runs land here.
func (s *Server) writePredictError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		// A shed means the queue was full, so the back-off is constant.
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		WriteError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: request deadline exceeded"))
	default:
		WriteError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.Models()
	resp := ModelsResponse{Generation: s.reg.Generation(), Models: make([]ModelInfo, len(models))}
	for i, m := range models {
		resp.Models[i] = infoFor(m)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Report())
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	gen, err := s.Reload()
	if err != nil {
		WriteError(w, http.StatusInternalServerError,
			fmt.Errorf("serve: reload failed, previous catalog still serving: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Generation: gen, Models: s.reg.Names()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	EncodeJSON(w, v) //nolint:errcheck // best-effort: client may have gone
}

// WriteError answers status with the JSON error envelope, the package's
// "serve: " prefix stripped from the message. The gateway answers a body
// that fails ScanPredict through it, so its 400 is byte-identical to the
// replica's.
func WriteError(w http.ResponseWriter, status int, err error) {
	msg := strings.TrimPrefix(err.Error(), "serve: ")
	writeJSON(w, status, ErrorResponse{Error: msg})
}
