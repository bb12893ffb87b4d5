package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/engine"
	"perfpred/internal/serve"
)

const (
	// epilogueModel is the model the epilogue retrains. The neural
	// family is seed-sensitive, so a different seed (and different
	// training data) provably moves its predictions.
	epilogueModel = "nns"
	// epilogueAttempts bounds every retried step: faults stay armed
	// through the epilogue, so probes and reloads need a retry budget
	// that outlasts the fault cadences.
	epilogueAttempts = 40
	epilogueBackoff  = 5 * time.Millisecond
)

// EpilogueStats records a run's generation-boundary epilogue, with the counts the run-wide invariants need to stay
// balanced (epilogue reload successes advance the registry generation;
// epilogue 429s explain shed-counter movement after the schedule).
type EpilogueStats struct {
	Probes         int `json:"probes"`
	Observed429s   int `json:"observed_429s"`
	ReloadAttempts int `json:"reload_attempts"`
	ReloadsOK      int `json:"reloads_ok"`
}

// epilogue is the evidence of the generation-boundary epilogue, judged
// by checkEpilogue.
type epilogue struct {
	EpilogueStats
	old, new  []float64 // hot-row goldens of the served and the retrained artifact
	pre, post []float64 // hot-row predictions served before and after the reload; NaN = never answered 200
	failed    string    // the step that never succeeded, when the epilogue stopped short
}

// runEpilogue drives a run's generation-boundary proof. The schedule has drained but the tier — and any armed fault
// injector — is still live:
//
//  1. probe the schedule's hot rows (the caches are warm, so these are
//     near-certain hits);
//  2. retrain one model on different data, overwrite its artifact in
//     place, and reload every replica until an attempt lands on each;
//  3. probe the same hot rows again, for comparison against goldens
//     scored from the NEW artifact.
func (h *harness) runEpilogue() {
	e := &epilogue{}
	h.led.epi = e
	hot := min(hotPoolSize, len(h.fx.rows))
	e.old = h.fx.golden[epilogueModel][:hot]
	e.pre = h.probeHot(e, hot)
	if e.new, e.failed = h.retrain(hot); e.failed != "" {
		return
	}
	// Reload until one attempt lands on each replica — the reload fault
	// rejects every third attempt and artifact faults can tear others.
	for _, r := range h.top.reps {
		for try := 0; ; try++ {
			if try == epilogueAttempts {
				e.failed = fmt.Sprintf("replica %s: no reload succeeded in %d attempts", r.addr, epilogueAttempts)
				return
			}
			e.ReloadAttempts++
			if _, err := r.srv.Reload(); err == nil {
				e.ReloadsOK++
				h.ack(r.addr)
				break
			}
			time.Sleep(epilogueBackoff)
		}
	}
	e.post = h.probeHot(e, hot)
}

// retrain retrains the epilogue model on a different dataset and seed,
// so even a deterministic trainer produces a different artifact, swaps
// it in place, and scores the hot rows from the artifact actually on
// disk. It returns those goldens, or the step that failed.
func (h *harness) retrain(hot int) ([]float64, string) {
	train, err := synthDataset(128, h.cfg.Seed+777)
	if err != nil {
		return nil, fmt.Sprintf("retrain dataset: %v", err)
	}
	p, err := core.Train(context.Background(), fixtureModels()[epilogueModel], train,
		core.TrainConfig{Seed: h.cfg.Seed + 77, Workers: 2, EpochScale: 0.2})
	if err != nil {
		return nil, fmt.Sprintf("retraining %s: %v", epilogueModel, err)
	}
	path := filepath.Join(h.fx.dir, epilogueModel+".json")
	if err := savePredictor(path, p); err != nil {
		return nil, fmt.Sprintf("saving retrained artifact: %v", err)
	}
	loaded, err := core.LoadPredictorFile(path)
	if err != nil {
		return nil, fmt.Sprintf("loading retrained artifact: %v", err)
	}
	out := make([]float64, hot)
	if err := loaded.PredictRowsInto(engine.NewWorkerContext(context.Background()), out, h.fx.rows[:hot]); err != nil {
		return nil, fmt.Sprintf("scoring new goldens: %v", err)
	}
	return out, ""
}

// probeHot probes each hot row once through the front.
func (h *harness) probeHot(e *epilogue, hot int) []float64 {
	got := make([]float64, hot)
	for idx := range got {
		got[idx] = h.epilogueRequest(&e.EpilogueStats, idx)
	}
	return got
}

// epilogueRequest posts one hot row until it draws a 200 (faults are
// still armed, so shed / stalled / injected-error outcomes retry within
// the attempt budget) and returns its single prediction, or NaN when it
// never drew one.
func (h *harness) epilogueRequest(epi *EpilogueStats, idx int) float64 {
	body, err := json.Marshal(&serve.PredictRequest{
		Model: epilogueModel,
		Row:   serve.WireRow(h.fx.rows[idx]),
	})
	if err != nil {
		return math.NaN()
	}
	for try := 0; try < epilogueAttempts; try++ {
		resp, err := h.client.Post(h.top.baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(epilogueBackoff)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			epi.Observed429s++
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			time.Sleep(epilogueBackoff)
			continue
		}
		var pr serve.PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || len(pr.Predictions) != 1 {
			time.Sleep(epilogueBackoff)
			continue
		}
		epi.Probes++
		return pr.Predictions[0]
	}
	return math.NaN()
}
