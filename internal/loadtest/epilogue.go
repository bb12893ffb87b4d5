package loadtest

import (
	"fmt"
	"math"
	"net/http"
	"time"
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
// it in place, and returns the hot rows' goldens scored from the
// artifact actually on disk, or the step that failed.
func (h *harness) retrain(hot int) ([]float64, string) {
	train, err := synthDataset(128, h.cfg.Seed+777)
	if err != nil {
		return nil, fmt.Sprintf("retrain dataset: %v", err)
	}
	golden, err := trainArtifact(h.fx.dir, epilogueModel, train, h.cfg.Seed+77, h.fx.rows[:hot])
	if err != nil {
		return nil, fmt.Sprintf("retraining %s: %v", epilogueModel, err)
	}
	return golden, ""
}

// probeHot probes each hot row once through the front.
func (h *harness) probeHot(e *epilogue, hot int) []float64 {
	got := make([]float64, hot)
	for idx := range got {
		got[idx] = h.epilogueRequest(&e.EpilogueStats, idx)
	}
	return got
}

// epilogueRequest sends one hot row down runPredict, the path every
// scheduled request takes, until it draws a 200 (faults are still
// armed, so shed / stalled / injected-error outcomes retry within the
// attempt budget) and returns its single prediction, or NaN when it
// never drew one.
func (h *harness) epilogueRequest(epi *EpilogueStats, idx int) float64 {
	ev := Event{Model: epilogueModel, RowIdxs: []int{idx}, Single: true}
	for try := 0; try < epilogueAttempts; try++ {
		out := h.runPredict(ev)
		if out.status == http.StatusTooManyRequests {
			epi.Observed429s++
		}
		if out.status == http.StatusOK && len(out.preds) == 1 {
			epi.Probes++
			return out.preds[0]
		}
		time.Sleep(epilogueBackoff)
	}
	return math.NaN()
}
