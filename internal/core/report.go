package core

import (
	"perfpred/internal/obs"
)

// ReportMeta identifies a run for its RunReport: everything needed to
// reproduce it plus the wall-clock numbers only the caller can measure.
type ReportMeta struct {
	// Command names the producing tool ("dse", "chrono", "experiments").
	Command string
	// Target is the benchmark or system family.
	Target string
	// Seed is the master seed the run used.
	Seed int64
	// Workers is the configured worker bound (0 = GOMAXPROCS).
	Workers int
	// EpochScale is the neural epoch-budget scale used (0 = 1.0).
	EpochScale float64
	// SpaceSize is the evaluated design-space size (sampled DSE).
	SpaceSize int
	// WallClock is the caller-measured timing breakdown.
	WallClock obs.WallClock
}

// newReport builds the skeleton every workflow report shares.
func (m ReportMeta) newReport(rec *obs.Recorder) *obs.RunReport {
	rep := &obs.RunReport{
		Version:    obs.ReportVersion,
		Command:    m.Command,
		Target:     m.Target,
		Seed:       m.Seed,
		Workers:    m.Workers,
		EpochScale: m.EpochScale,
		SpaceSize:  m.SpaceSize,
		WallClock:  m.WallClock,
	}
	if rec != nil {
		exec := rec.Execution()
		rep.Execution = &exec
	}
	return rep
}

// reportModels converts workflow model reports to their serializable
// form, preserving request order and full float64 precision — the same
// values the console renderers round for display, so a report and the
// console output can never disagree.
func reportModels(reports []ModelReport) []obs.ModelResult {
	out := make([]obs.ModelResult, len(reports))
	for i, r := range reports {
		out[i] = obs.ModelResult{
			Kind:            r.Kind.String(),
			EstimateMean:    r.Estimate.Mean,
			EstimateMax:     r.Estimate.Max,
			EstimatePerFold: append([]float64(nil), r.Estimate.PerFold...),
			TrueMAPE:        r.TrueMAPE,
			StdAPE:          r.StdAPE,
		}
	}
	return out
}

// BuildDSEReport assembles the RunReport of a sampled design-space
// exploration run. rec may be nil (the execution section is omitted).
func BuildDSEReport(res *SampledDSEResult, meta ReportMeta, rec *obs.Recorder) *obs.RunReport {
	rep := meta.newReport(rec)
	rep.Fraction = res.Fraction
	rep.SampleSize = res.SampleSize
	rep.Models = reportModels(res.Reports)
	rep.Selected = res.Selected.String()
	rep.SelectedTrueMAPE = res.SelectedTrueMAPE
	return rep
}

// BuildActiveDSEReport assembles the RunReport of an active-learning
// design-space exploration run: the sampled-DSE sections (so the same
// readers and regression fixtures work at equal budget) plus the
// acquisition trajectory in the Active section. rec may be nil.
func BuildActiveDSEReport(res *ActiveDSEResult, meta ReportMeta, rec *obs.Recorder) *obs.RunReport {
	rep := BuildDSEReport(&res.SampledDSEResult, meta, rec)
	act := &obs.ActiveStats{
		InitialSize: res.InitialSize,
		FinalSize:   res.SampleSize,
		PoolSize:    res.Complement.Len(),
		Rounds:      make([]obs.ActiveRound, len(res.Rounds)),
	}
	for i, r := range res.Rounds {
		round := obs.ActiveRound{
			Round:          r.Round,
			LabeledBefore:  r.LabeledBefore,
			PoolBefore:     r.PoolBefore,
			Acquired:       r.Acquired,
			TrainSeconds:   r.TrainSeconds,
			AcquireSeconds: r.AcquireSeconds,
			Committee:      make([]obs.CommitteeError, len(r.Committee)),
		}
		for j, c := range r.Committee {
			round.Committee[j] = obs.CommitteeError{Kind: c.Name, TrueMAPE: c.MAPE}
		}
		act.Rounds[i] = round
	}
	rep.Active = act
	return rep
}

// BuildChronoReport assembles the RunReport of a chronological
// prediction run. rec may be nil.
func BuildChronoReport(res *ChronoResult, trainSize, futureSize int, meta ReportMeta, rec *obs.Recorder) *obs.RunReport {
	rep := meta.newReport(rec)
	rep.TrainSize = trainSize
	rep.FutureSize = futureSize
	rep.Models = reportModels(res.Reports)
	rep.Selected = res.Selected.String()
	rep.SelectedTrueMAPE = res.SelectedTrueMAPE
	rep.Best = res.Best.String()
	rep.BestTrueMAPE = res.BestTrueMAPE
	return rep
}
