package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// ReportVersion is the current RunReport schema version. Readers reject
// other versions rather than misinterpret fields.
const ReportVersion = 1

// ModelResult is one model's scored outcome in a run — the error numbers
// the paper's figures are made of, in full float64 precision (console
// output rounds to two decimals; the report does not).
type ModelResult struct {
	// Kind is the paper's model label (e.g. "LR-B", "NN-E").
	Kind string `json:"kind"`
	// EstimateMean is the mean cross-validated MAPE over the folds (§3.3).
	EstimateMean float64 `json:"estimate_mean"`
	// EstimateMax is the worst fold's MAPE — the paper's selection
	// criterion.
	EstimateMax float64 `json:"estimate_max"`
	// EstimatePerFold lists each fold's MAPE.
	EstimatePerFold []float64 `json:"estimate_per_fold,omitempty"`
	// TrueMAPE is the measured error on the evaluation data.
	TrueMAPE float64 `json:"true_mape"`
	// StdAPE is the standard deviation of the absolute percentage errors.
	StdAPE float64 `json:"std_ape"`
}

// CommitteeError is one committee member's measured error at one
// active-learning round — a learning-curve point.
type CommitteeError struct {
	// Kind is the member's model label (e.g. "NN-Q", "TREE-B").
	Kind string `json:"kind"`
	// TrueMAPE is the member's measured full-space error that round.
	TrueMAPE float64 `json:"true_mape"`
}

// ActiveRound is one acquisition round of an active-learning run.
type ActiveRound struct {
	// Round is the 1-based round index.
	Round int `json:"round"`
	// LabeledBefore and PoolBefore are the set sizes entering the round.
	LabeledBefore int `json:"labeled_before"`
	PoolBefore    int `json:"pool_before"`
	// Acquired is how many design points the round moved pool → labeled.
	Acquired int `json:"acquired"`
	// TrainSeconds and AcquireSeconds break down the round's wall clock
	// into committee training and acquisition scoring.
	TrainSeconds   float64 `json:"train_seconds"`
	AcquireSeconds float64 `json:"acquire_seconds"`
	// Committee is the round's trained members' error trajectory.
	Committee []CommitteeError `json:"committee,omitempty"`
}

// ActiveStats summarizes an active-learning DSE run: the acquisition
// strategy, the budget split (initial random sample vs. acquired), and
// the per-round learning-curve trajectory.
type ActiveStats struct {
	// Strategy names the acquisition policy ("committee", "diversity",
	// "ei", or any future registered name).
	Strategy string `json:"strategy"`
	// InitialSize is the random seed sample, FinalSize the total labeled
	// budget after all rounds, PoolSize the remaining unlabeled points.
	InitialSize int `json:"initial_size"`
	FinalSize   int `json:"final_size"`
	PoolSize    int `json:"pool_size"`
	// Rounds holds one entry per executed acquisition round.
	Rounds []ActiveRound `json:"rounds,omitempty"`
}

// Validate checks the section's structural invariants.
func (a *ActiveStats) Validate() error {
	if a.Strategy == "" {
		return errors.New("obs: active stats have no strategy")
	}
	if a.InitialSize < 0 || a.FinalSize < a.InitialSize || a.PoolSize < 0 {
		return errors.New("obs: active stats sizes inconsistent")
	}
	for _, r := range a.Rounds {
		if !isFinite(r.TrainSeconds) || !isFinite(r.AcquireSeconds) {
			return fmt.Errorf("obs: active round %d has non-finite timing", r.Round)
		}
		for _, c := range r.Committee {
			if c.Kind == "" {
				return fmt.Errorf("obs: active round %d committee entry has no kind", r.Round)
			}
			if !isFinite(c.TrueMAPE) {
				return fmt.Errorf("obs: active round %d committee %s has non-finite error", r.Round, c.Kind)
			}
		}
	}
	return nil
}

// WallClock is a coarse wall-clock breakdown of a run. Fields are
// seconds; phases absent from a run stay zero.
type WallClock struct {
	// TotalSeconds is the run's end-to-end wall-clock time.
	TotalSeconds float64 `json:"total_seconds"`
	// SimulateSeconds is the design-space simulation (ground-truth) time.
	SimulateSeconds float64 `json:"simulate_seconds,omitempty"`
	// ModelSeconds is the train/estimate/evaluate time.
	ModelSeconds float64 `json:"model_seconds,omitempty"`
}

// RunReport is the machine-readable record of one experiment run: what
// was run (command, target, seeds, workers), what came out (per-model
// errors, the selection decision), and how it executed (wall-clock
// breakdown, engine statistics). It is the payload behind
// the cmds' -report flags and the fixture format of the statistical
// regression tests.
type RunReport struct {
	// Version is the schema version (ReportVersion).
	Version int `json:"version"`
	// Command names the producing tool ("dse", "chrono", "experiments").
	Command string `json:"command"`
	// Target is the benchmark (sampled DSE) or system family (chrono).
	Target string `json:"target,omitempty"`
	// Seed is the run's master seed; with the command and target it
	// reproduces the run exactly.
	Seed int64 `json:"seed"`
	// Workers is the configured worker bound (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// EpochScale is the neural epoch-budget scale (0 = 1.0).
	EpochScale float64 `json:"epoch_scale,omitempty"`

	// Fraction and SampleSize describe sampled-DSE runs: the sampling
	// rate and the resulting number of simulated design points.
	Fraction   float64 `json:"fraction,omitempty"`
	SampleSize int     `json:"sample_size,omitempty"`
	// SpaceSize is the evaluated space (sampled DSE) size.
	SpaceSize int `json:"space_size,omitempty"`
	// TrainSize and FutureSize describe chronological runs.
	TrainSize  int `json:"train_size,omitempty"`
	FutureSize int `json:"future_size,omitempty"`

	// Models holds one entry per requested model kind, in request order.
	Models []ModelResult `json:"models,omitempty"`
	// Selected is the model the Select rule picks on estimated error
	// alone, and SelectedTrueMAPE its measured error.
	Selected         string  `json:"selected,omitempty"`
	SelectedTrueMAPE float64 `json:"selected_true_mape,omitempty"`
	// Best is the model with the lowest measured error (chronological
	// runs report it; sampled DSE leaves it empty).
	Best         string  `json:"best,omitempty"`
	BestTrueMAPE float64 `json:"best_true_mape,omitempty"`

	// Active is the acquisition trajectory of an active-learning DSE run
	// (absent for one-shot random sampling).
	Active *ActiveStats `json:"active,omitempty"`

	// WallClock is the run's coarse timing breakdown.
	WallClock WallClock `json:"wall_clock"`
	// Execution is the engine-level statistics aggregated by a Recorder,
	// when one was attached.
	Execution *ExecutionStats `json:"execution,omitempty"`
}

// Validate checks structural invariants: supported version, a command,
// finite numbers everywhere (JSON cannot carry NaN/Inf), and per-model
// consistency. It is the gate both the file reader and the fuzz
// round-trip harness rely on.
func (r *RunReport) Validate() error {
	if r == nil {
		return errors.New("obs: nil report")
	}
	if r.Version != ReportVersion {
		return fmt.Errorf("obs: unsupported report version %d (want %d)", r.Version, ReportVersion)
	}
	if r.Command == "" {
		return errors.New("obs: report has no command")
	}
	for i, m := range r.Models {
		if m.Kind == "" {
			return fmt.Errorf("obs: model %d has no kind", i)
		}
		for _, v := range append([]float64{m.EstimateMean, m.EstimateMax, m.TrueMAPE, m.StdAPE}, m.EstimatePerFold...) {
			if !isFinite(v) {
				return fmt.Errorf("obs: model %s has non-finite error value", m.Kind)
			}
		}
	}
	for _, v := range []float64{
		r.EpochScale, r.Fraction, r.SelectedTrueMAPE, r.BestTrueMAPE,
		r.WallClock.TotalSeconds, r.WallClock.SimulateSeconds, r.WallClock.ModelSeconds,
	} {
		if !isFinite(v) {
			return errors.New("obs: report has non-finite numeric field")
		}
	}
	if r.Active != nil {
		if err := r.Active.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FindModel returns the named model's result, or nil when absent.
func (r *RunReport) FindModel(kind string) *ModelResult {
	for i := range r.Models {
		if r.Models[i].Kind == kind {
			return &r.Models[i]
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }

// WriteFile writes the report to path as indented JSON.
func (r *RunReport) WriteFile(path string) error { return WriteFile(path, r) }

// ReadReport parses and validates a report.
func ReadReport(r io.Reader) (*RunReport, error) { return ReadJSON[RunReport](r) }

// ReadReportFile reads a report from a JSON file.
func ReadReportFile(path string) (*RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading report: %w", err)
	}
	defer f.Close()
	return ReadReport(f)
}

// validator is every report type: RunReport here, and the serving
// tiers' reports in internal/serve and internal/gateway.
type validator interface{ Validate() error }

// WriteJSON is the one report encoder: it validates first, so no report
// is ever persisted in a state its reader would reject.
func WriteJSON(w io.Writer, rep validator) error {
	if err := rep.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes rep to path through WriteJSON.
func WriteFile(path string, rep validator) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	if err := WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON is the one report decoder: decode, then validate.
func ReadJSON[T any, P interface {
	*T
	validator
}](r io.Reader) (*T, error) {
	var rep T
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: decoding report: %w", err)
	}
	if err := P(&rep).Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}
