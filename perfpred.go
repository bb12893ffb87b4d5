// Package perfpred predicts the performance of computer-system design
// alternatives from small samples of measured configurations, reproducing
// the methodology of Ozisikyilmaz, Memik and Choudhary, "Machine Learning
// Models to Predict Performance of Computer System Design Alternatives"
// (ICPP 2008).
//
// The library provides:
//
//   - the paper's nine predictive models: four linear-regression
//     variable-selection methods (LR-E, LR-S, LR-B, LR-F) and five
//     neural-network training methods (NN-Q, NN-D, NN-M, NN-P, NN-E),
//     plus the single-layer NN-S baseline and a bagged regression-tree
//     ensemble (TREE-B) registered through the open model-family
//     registry;
//   - the two workflows of the paper's Figure 1: sampled design-space
//     exploration (train on 1–5 % of a design space, predict the rest) and
//     chronological prediction (train on year Y announcements, predict
//     year Y+1);
//   - cross-validated error estimation and the "Select" rule that picks
//     the best model before any test data exists;
//   - the complete evaluation substrate: a trace-driven cycle-approximate
//     out-of-order CPU simulator with the paper's 4608-point Table 1
//     design space and calibrated SPEC2000 workload models, and a
//     synthetic SPEC announcement database with the paper's seven system
//     families. The simulator's staged evaluator shares each cache,
//     TLB and predictor pass across every configuration that needs it,
//     so the whole space simulates exactly in about a second at the
//     recommended trace lengths, and no SimPoint sampling is needed.
//
// # Quick start
//
//	ds, _ := perfpred.SimulateDesignSpace("mcf", perfpred.SimOptions{})
//	res, _ := perfpred.RunSampledDSE(ds, 0.01, perfpred.SampledModels(), perfpred.TrainConfig{Seed: 1})
//	fmt.Printf("selected %v, true error %.2f%%\n", res.Selected, res.SelectedTrueMAPE)
//
// See the examples directory for complete programs.
package perfpred

import (
	"context"
	"io"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/specdata"
	"perfpred/internal/tree"
)

// ModelKind identifies one of the framework's candidate models.
type ModelKind = core.ModelKind

// The nine models of the paper, the NN-S baseline, and the TREE-B
// tree-ensemble family.
const (
	// LRE is linear regression, Enter method (all predictors).
	LRE = core.LRE
	// LRS is stepwise linear regression.
	LRS = core.LRS
	// LRB is backwards linear regression.
	LRB = core.LRB
	// LRF is forwards linear regression.
	LRF = core.LRF
	// NNQ is the Quick neural network.
	NNQ = core.NNQ
	// NND is the Dynamic neural network.
	NND = core.NND
	// NNM is the Multiple (multi-topology) neural network.
	NNM = core.NNM
	// NNP is the Prune neural network.
	NNP = core.NNP
	// NNE is the Exhaustive Prune neural network.
	NNE = core.NNE
	// NNS is the single-layer constant-rate network (Ipek-style baseline).
	NNS = core.NNS
	// TreeB is the bagged CART regression-tree ensemble — the first family
	// registered from outside the paper's zoo, proving the registry seam.
	TreeB = tree.KindTreeB
)

// AllModels lists every model kind.
func AllModels() []ModelKind { return core.AllModels() }

// FigureModels lists the nine models in the paper's Figure 7/8 order.
func FigureModels() []ModelKind { return core.FigureModels() }

// SampledModels lists the three models of the paper's Figures 2–6
// (LR-B, NN-E, NN-S).
func SampledModels() []ModelKind { return core.SampledModels() }

// ParseModelKind converts a label like "NN-E" into a ModelKind.
func ParseModelKind(s string) (ModelKind, error) { return core.ParseModelKind(s) }

// Dataset is a typed table of system configurations with a numeric
// performance target.
type Dataset = dataset.Dataset

// Schema describes a dataset's input fields and target.
type Schema = dataset.Schema

// Field is one input parameter of a schema.
type Field = dataset.Field

// FieldKind is the type of a field (numeric, flag, categorical).
type FieldKind = dataset.FieldKind

// Field kinds.
const (
	Numeric     = dataset.Numeric
	Flag        = dataset.Flag
	Categorical = dataset.Categorical
)

// Value is one cell of a record.
type Value = dataset.Value

// Num builds a numeric value.
func Num(x float64) Value { return dataset.Num(x) }

// FlagVal builds a flag value.
func FlagVal(b bool) Value { return dataset.FlagVal(b) }

// Cat builds a categorical value.
func Cat(s string) Value { return dataset.Cat(s) }

// NewSchema builds a schema from a target name and fields.
func NewSchema(target string, fields ...Field) (*Schema, error) {
	return dataset.NewSchema(target, fields...)
}

// NewDataset returns an empty dataset over the schema.
func NewDataset(s *Schema) *Dataset { return dataset.New(s) }

// TrainConfig configures model training (seed, parallelism, neural epoch
// scaling, instrumentation hook).
type TrainConfig = core.TrainConfig

// Hook observes execution-engine events (task start/finish, durations,
// fold indices, neural epoch progress). Set one on TrainConfig.Hook to get
// live progress from any workflow; hooks are called concurrently and must
// be safe for concurrent use.
type Hook = engine.Hook

// Event is one structured execution-engine observation.
type Event = engine.Event

// EventKind classifies an Event.
type EventKind = engine.EventKind

// Event kinds.
const (
	// TaskStart fires when a pool task begins executing.
	TaskStart = engine.TaskStart
	// TaskDone fires when a pool task completes successfully.
	TaskDone = engine.TaskDone
	// TaskFailed fires when a pool task returns an error or panics.
	TaskFailed = engine.TaskFailed
	// EpochProgress reports neural-network training progress.
	EpochProgress = engine.EpochProgress
)

// Predictor is a trained model bound to its input encoder.
type Predictor = core.Predictor

// Train fits one model kind on a training dataset. Cancelling ctx aborts
// training promptly.
func Train(ctx context.Context, kind ModelKind, train *Dataset, cfg TrainConfig) (*Predictor, error) {
	return core.Train(ctx, kind, train, cfg)
}

// LoadPredictor restores a predictor previously written with
// Predictor.Save; the loaded model scores raw records without retraining.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	return core.LoadPredictor(r)
}

// ReadDatasetCSV parses a CSV written by Dataset.WriteCSV back into a
// dataset over the given schema.
func ReadDatasetCSV(r io.Reader, schema *Schema) (*Dataset, error) {
	return dataset.ReadCSV(r, schema)
}

// DatasetDescription profiles a dataset (per-field ranges, cardinalities
// and target statistics).
type DatasetDescription = dataset.Description

// Describe profiles a dataset the way the paper's §4.1 summarizes its data
// (spread statistics per field and target).
func Describe(d *Dataset) (*DatasetDescription, error) {
	return dataset.Describe(d)
}

// ErrorEstimate is a cross-validated error prediction (paper §3.3).
type ErrorEstimate = core.ErrorEstimate

// EstimateError predicts a model's error from training data alone using
// the paper's five half-split cross-validation folds.
func EstimateError(ctx context.Context, kind ModelKind, train *Dataset, cfg TrainConfig) (ErrorEstimate, error) {
	return core.EstimateError(ctx, kind, train, cfg)
}

// ModelReport carries one model's estimated and measured quality.
type ModelReport = core.ModelReport

// SampledDSEResult is one sampled design-space exploration outcome.
type SampledDSEResult = core.SampledDSEResult

// RunSampledDSE samples the given fraction of a full design-space dataset,
// trains the requested models, estimates their errors by cross-validation,
// measures true errors against the whole space and applies the Select rule
// (paper Figure 1a, §4.2). Cancelling ctx aborts the run promptly.
func RunSampledDSE(ctx context.Context, full *Dataset, fraction float64, kinds []ModelKind, cfg TrainConfig) (*SampledDSEResult, error) {
	return core.RunSampledDSE(ctx, full, fraction, kinds, cfg)
}

// ActiveOptions configures the active-learning extension of sampled DSE
// (acquisition rounds and batch size).
type ActiveOptions = core.ActiveOptions

// ActiveDSEResult is one active-learning design-space exploration
// outcome: a SampledDSEResult plus the acquisition trajectory.
type ActiveDSEResult = core.ActiveDSEResult

// ActiveRoundStats records one acquisition round of an active run.
type ActiveRoundStats = core.ActiveRoundStats

// RunActiveDSE replaces the one-shot random sample of RunSampledDSE
// with a model-guided active-learning loop: draw the same initial
// random sample, then spend additional simulation budget in rounds,
// each retraining the committee of requested kinds and acquiring the
// pool points with the highest expected improvement on the best design
// under the committee posterior. The final labeled
// set is trained, cross-validated and selected exactly as RunSampledDSE
// does, so active and random runs compare report-for-report at equal
// budget. Cancelling ctx aborts the run promptly.
func RunActiveDSE(ctx context.Context, full *Dataset, fraction float64, kinds []ModelKind, cfg TrainConfig, opts ActiveOptions) (*ActiveDSEResult, error) {
	return core.RunActiveDSE(ctx, full, fraction, kinds, cfg, opts)
}

// ChronoResult is one chronological prediction outcome.
type ChronoResult = core.ChronoResult

// RunChronological trains models on one year's systems and evaluates them
// on the following year's (paper Figure 1b, §4.3). Cancelling ctx aborts
// the run promptly.
func RunChronological(ctx context.Context, train, future *Dataset, kinds []ModelKind, cfg TrainConfig) (*ChronoResult, error) {
	return core.RunChronological(ctx, train, future, kinds, cfg)
}

// FieldImportance is one field's relative influence on a model (§4.4).
type FieldImportance = core.FieldImportance

// SPECRecord is one synthesized SPEC announcement.
type SPECRecord = specdata.Record

// SPECFamilies lists the seven system families of the chronological study
// ("Xeon", "Pentium 4", "Pentium D", "Opteron", "Opteron 2", "Opteron 4",
// "Opteron 8").
func SPECFamilies() []string {
	fams := specdata.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// GenerateSPECData synthesizes the announcement records of one family
// across all its years, deterministically for the seed.
func GenerateSPECData(family string, seed int64) ([]SPECRecord, error) {
	f, err := specdata.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	return specdata.Generate(f, seed)
}

// SPECDataset assembles announcement records (optionally filtered to
// specific years) into a dataset whose target is the SPEC rate.
func SPECDataset(records []SPECRecord, years ...int) (*Dataset, error) {
	return specdata.BuildDataset(records, years...)
}

// SPECSchema returns the 32-field announcement schema.
func SPECSchema() *Schema { return specdata.Schema() }
