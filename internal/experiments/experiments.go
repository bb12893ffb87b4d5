// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each Run* function regenerates one artifact from
// scratch — workload generation, design-space simulation through
// space.SweepBenchmark or SPEC data synthesis, model training,
// cross-validation and scoring — and returns a structured result with a
// text renderer. Aggregates are built from studies the caller already
// holds: ComputeTable3 from the Figures 2–6 studies, a Table2 from the
// Figure 7/8 family studies, and RunPerAppChrono from its family's rate
// study, so cmd/experiments computes each study once per invocation.
// Under a WithSweepMemo context the experiments also share their
// simulated spaces, so an invocation sweeps each benchmark once.
// RunMicroCalibration adds to the §4.1 range and variance each
// benchmark's response to the ten free Table 1 dimensions: distinct cycle
// counts, mean cycles by dimension value, inert dimensions, and the
// fastest and slowest points' cycle breakdowns. The cmd/experiments
// binary and the repository's benchmark harness are thin wrappers over
// this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"perfpred/internal/bpred"
	"perfpred/internal/core"
	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/space"
	"perfpred/internal/specdata"
	"perfpred/internal/stat"
	"perfpred/internal/trace"
)

// Config tunes experiment cost and reproducibility.
type Config struct {
	// Seed drives all data generation and training.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// EpochScale scales neural training budgets (0 = 1.0).
	EpochScale float64
	// TraceLen overrides each benchmark's recommended instruction count
	// (0 keeps the recommendation). Benchmarks and tests use smaller
	// traces for speed.
	TraceLen int
	// SpaceStride simulates every SpaceStride-th design point instead of
	// all 4608 (0/1 = full space). Use a value coprime to the space's
	// dimension sizes, e.g. 11.
	SpaceStride int
	// Hook, if non-nil, observes execution-engine events from every
	// workflow an experiment runs.
	Hook engine.Hook
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) trainCfg() core.TrainConfig {
	return core.TrainConfig{Seed: c.seed(), Workers: c.Workers, EpochScale: c.EpochScale, Hook: c.Hook}
}

func (c Config) engineOpts() engine.Options {
	return engine.Options{Workers: c.Workers, Hook: c.Hook}
}

// SampledCell is one (sampling rate × model) measurement of a Figures 2–6
// style study.
type SampledCell struct {
	Fraction     float64
	Kind         core.ModelKind
	EstimateMean float64 // mean cross-validated error (the "-est" curves)
	EstimateMax  float64 // max cross-validated error (the paper's estimator)
	TrueMAPE     float64 // error over 100% of the space
}

// SampledStudy reproduces one of Figures 2–6: estimated vs. true error for
// several models at several sampling rates, plus the Select rule's row of
// Table 3.
type SampledStudy struct {
	Bench     string
	Fractions []float64
	Kinds     []core.ModelKind
	Cells     []SampledCell
	// SelectTrue maps each fraction to the true error of the model the
	// Select rule picked at that fraction.
	SelectTrue map[float64]float64
	// SelectKind maps each fraction to the picked model.
	SelectKind map[float64]core.ModelKind
	// SpacePoints is the number of design points used as ground truth.
	SpacePoints int
}

// RunSampledStudy regenerates one Figures 2–6 panel set for a benchmark.
func RunSampledStudy(ctx context.Context, bench string, fractions []float64, kinds []core.ModelKind, cfg Config) (*SampledStudy, error) {
	if len(fractions) == 0 {
		return nil, errors.New("experiments: no sampling fractions")
	}
	if len(kinds) == 0 {
		return nil, errors.New("experiments: no model kinds")
	}
	_, cfgs, cycles, err := sweep(ctx, bench, cfg)
	if err != nil {
		return nil, err
	}
	full, err := space.BuildDataset(cfgs, cycles)
	if err != nil {
		return nil, err
	}
	study := &SampledStudy{
		Bench:       bench,
		Fractions:   append([]float64(nil), fractions...),
		Kinds:       append([]core.ModelKind(nil), kinds...),
		SelectTrue:  map[float64]float64{},
		SelectKind:  map[float64]core.ModelKind{},
		SpacePoints: full.Len(),
	}
	for fi, frac := range fractions {
		tc := cfg.trainCfg()
		tc.Seed = stat.DeriveSeed(cfg.seed(), 9000+fi)
		res, err := core.RunSampledDSE(ctx, full, frac, kinds, tc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at %.0f%%: %w", bench, 100*frac, err)
		}
		for _, rep := range res.Reports {
			study.Cells = append(study.Cells, SampledCell{
				Fraction:     frac,
				Kind:         rep.Kind,
				EstimateMean: rep.Estimate.Mean,
				EstimateMax:  rep.Estimate.Max,
				TrueMAPE:     rep.TrueMAPE,
			})
		}
		study.SelectTrue[frac] = res.SelectedTrueMAPE
		study.SelectKind[frac] = res.Selected
	}
	return study, nil
}

// Cell returns the study cell for (fraction, kind).
func (s *SampledStudy) Cell(frac float64, kind core.ModelKind) (SampledCell, bool) {
	for _, c := range s.Cells {
		if c.Fraction == frac && c.Kind == kind {
			return c, true
		}
	}
	return SampledCell{}, false
}

// WriteText renders the study the way the paper's figures tabulate:
// true and estimated error per model per sampling rate.
func (s *SampledStudy) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Model Error - %s (%d space points)\n", s.Bench, s.SpacePoints)
	head := "sample%\t"
	for _, k := range s.Kinds {
		head += k.String() + "\t" + k.String() + "-est\t"
	}
	head += "Select\t(model)"
	fmt.Fprintln(tw, head)
	for _, f := range s.Fractions {
		line := fmt.Sprintf("%.0f%%\t", 100*f)
		for _, k := range s.Kinds {
			c, ok := s.Cell(f, k)
			if !ok {
				line += "-\t-\t"
				continue
			}
			line += fmt.Sprintf("%.2f\t%.2f\t", c.TrueMAPE, c.EstimateMax)
		}
		line += fmt.Sprintf("%.2f\t%v", s.SelectTrue[f], s.SelectKind[f])
		fmt.Fprintln(tw, line)
	}
	return tw.Flush()
}

// Table3 aggregates sampled studies into the paper's Table 3: average true
// error across benchmarks per model per sampling rate, plus the Select row.
type Table3 struct {
	Fractions []float64
	Kinds     []core.ModelKind
	// Avg[kind][fraction index] is the cross-benchmark average true error.
	Avg map[core.ModelKind][]float64
	// SelectAvg[fraction index] is the Select rule's average true error.
	SelectAvg []float64
	Benches   []string
}

// ComputeTable3 reduces per-benchmark studies to the Table 3 averages.
func ComputeTable3(studies []*SampledStudy) (*Table3, error) {
	if len(studies) == 0 {
		return nil, errors.New("experiments: no studies")
	}
	base := studies[0]
	t := &Table3{
		Fractions: base.Fractions,
		Kinds:     base.Kinds,
		Avg:       map[core.ModelKind][]float64{},
		SelectAvg: make([]float64, len(base.Fractions)),
	}
	for _, k := range t.Kinds {
		t.Avg[k] = make([]float64, len(t.Fractions))
	}
	for _, s := range studies {
		t.Benches = append(t.Benches, s.Bench)
		for fi, f := range t.Fractions {
			for _, k := range t.Kinds {
				c, ok := s.Cell(f, k)
				if !ok {
					return nil, fmt.Errorf("experiments: study %s missing cell (%v, %v)", s.Bench, f, k)
				}
				t.Avg[k][fi] += c.TrueMAPE / float64(len(studies))
			}
			t.SelectAvg[fi] += s.SelectTrue[f] / float64(len(studies))
		}
	}
	return t, nil
}

// PaperTable3 returns the published Table 3 values for reference
// (rows LR-B, NN-E, NN-S, Select at 1–5 %).
func PaperTable3() map[string][]float64 {
	return map[string][]float64{
		"LR-B":   {4.2, 4.0, 3.82, 3.8, 3.8},
		"NN-E":   {3.48, 2.04, 1.14, 0.94, 0.88},
		"NN-S":   {5.94, 3.18, 2.22, 1.16, 1.5},
		"Select": {3.4, 2.6, 1.14, 0.94, 0.88},
	}
}

// WriteText renders Table 3.
func (t *Table3) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 3: average true error over %v\n", t.Benches)
	head := "Statistics\t"
	for _, f := range t.Fractions {
		head += fmt.Sprintf("%.0f%%\t", 100*f)
	}
	fmt.Fprintln(tw, head)
	for _, k := range t.Kinds {
		line := k.String() + "\t"
		for fi := range t.Fractions {
			line += fmt.Sprintf("%.2f\t", t.Avg[k][fi])
		}
		fmt.Fprintln(tw, line)
	}
	line := "Select\t"
	for fi := range t.Fractions {
		line += fmt.Sprintf("%.2f\t", t.SelectAvg[fi])
	}
	fmt.Fprintln(tw, line)
	return tw.Flush()
}

// ChronoStudy reproduces one panel of Figures 7–8 for one system family.
type ChronoStudy struct {
	Family              string
	Reports             []core.ModelReport
	Best                core.ModelKind
	BestTrue            float64
	Selected            core.ModelKind
	SelectedTrue        float64
	TrainSize, TestSize int
}

// RunChronoStudy trains on the family's 2005 announcements and predicts
// its 2006 announcements with the requested models.
func RunChronoStudy(ctx context.Context, family string, kinds []core.ModelKind, cfg Config) (*ChronoStudy, error) {
	fam, err := specdata.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	recs, err := specdata.Generate(fam, cfg.seed())
	if err != nil {
		return nil, err
	}
	train, err := specdata.BuildDataset(recs, 2005)
	if err != nil {
		return nil, err
	}
	future, err := specdata.BuildDataset(recs, 2006)
	if err != nil {
		return nil, err
	}
	res, err := core.RunChronological(ctx, train, future, kinds, cfg.trainCfg())
	if err != nil {
		return nil, err
	}
	return &ChronoStudy{
		Family:       family,
		Reports:      res.Reports,
		Best:         res.Best,
		BestTrue:     res.BestTrueMAPE,
		Selected:     res.Selected,
		SelectedTrue: res.SelectedTrueMAPE,
		TrainSize:    train.Len(),
		TestSize:     future.Len(),
	}, nil
}

// WriteText renders the study as one Figure 7/8 panel (mean ± stddev per
// model).
func (c *ChronoStudy) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Chronological Predictions - %s (train %d records of 2005, test %d of 2006)\n",
		c.Family, c.TrainSize, c.TestSize)
	fmt.Fprintln(tw, "model\terror%\tstddev\testimate(max)")
	for _, rep := range c.Reports {
		fmt.Fprintf(tw, "%v\t%.2f\t%.2f\t%.2f\n", rep.Kind, rep.TrueMAPE, rep.StdAPE, rep.Estimate.Max)
	}
	fmt.Fprintf(tw, "best: %v %.2f%%   selected-by-estimate: %v %.2f%%\n", c.Best, c.BestTrue, c.Selected, c.SelectedTrue)
	return tw.Flush()
}

// Table2 reproduces the paper's Table 2: the best accuracy and winning
// method per family, built from each family's chronological study in
// specdata.Families order.
type Table2 struct {
	Studies []*ChronoStudy
}

// PaperTable2 returns the published best errors and methods.
func PaperTable2() map[string]struct {
	Err    float64
	Method string
} {
	return map[string]struct {
		Err    float64
		Method string
	}{
		"Xeon":      {2.1, "LR-E"},
		"Pentium D": {2.2, "LR-E"},
		"Pentium 4": {1.5, "LR-E"},
		"Opteron":   {2.1, "LR-B/LR-S"},
		"Opteron 2": {3.1, "LR-B/LR-S"},
		"Opteron 4": {3.2, "LR-B/LR-S"},
		"Opteron 8": {3.5, "LR-B/LR-S"},
	}
}

// WriteText renders Table 2: each model's error ± stddev per family,
// then the best accuracy and method next to the paper's values.
func (t *Table2) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 2: best chronological accuracy per family")
	head := "family\t"
	if len(t.Studies) > 0 {
		for _, rep := range t.Studies[0].Reports {
			head += rep.Kind.String() + "\t"
		}
	}
	fmt.Fprintln(tw, head+"accuracy\tmethod\tpaper")
	paper := PaperTable2()
	for _, s := range t.Studies {
		line := s.Family + "\t"
		for _, rep := range s.Reports {
			line += fmt.Sprintf("%.1f±%.1f\t", rep.TrueMAPE, rep.StdAPE)
		}
		p := paper[s.Family]
		fmt.Fprintf(tw, "%s%.2f\t%v\t%.1f %s\n", line, s.BestTrue, s.Best, p.Err, p.Method)
	}
	return tw.Flush()
}

// CalibrationRow is one benchmark's §4.1 statistics.
type CalibrationRow struct {
	Name       string
	Points     int
	Range      float64
	NormVar    float64
	PaperRange float64
	PaperVar   float64
}

// PaperMicroStat is the paper's §4.1 cycle range and normalized variance
// for one benchmark across the design space.
type PaperMicroStat struct {
	Range, NormVar float64
}

// PaperMicroStats returns the published §4.1 statistics of the figured
// benchmarks.
func PaperMicroStats() map[string]PaperMicroStat {
	return map[string]PaperMicroStat{
		"applu": {1.62, 0.16}, "equake": {1.73, 0.19}, "gcc": {5.27, 0.33},
		"mesa": {2.22, 0.19}, "mcf": {6.38, 0.71},
	}
}

// MicroCalibration is the §4.1 simulation statistics of the figured
// benchmarks, with how each benchmark's cycles respond to the Table 1
// dimensions over the same simulated space.
type MicroCalibration struct {
	Rows      []CalibrationRow
	Responses []SpaceResponse
}

// SpaceResponse is how one benchmark's simulated cycles respond to the
// ten free Table 1 dimensions.
type SpaceResponse struct {
	Name string
	// Distinct is the number of distinct cycle counts over the points.
	Distinct int
	Dims     []DimResponse
	// Inert names the dimensions that never move cycles: at least two
	// points agree on the other nine dimensions, and every set of points
	// that does has a single cycle count.
	Inert []string
	// Fastest and Slowest are the extreme points with their breakdowns.
	Fastest, Slowest Extreme
}

// DimResponse is the mean cycle count at each value of one dimension.
type DimResponse struct {
	Name   string
	Values []string
	Means  []float64
	// Spread is the largest mean over the smallest, minus one, in percent.
	Spread float64
}

// Extreme is one design point and its simulated cycle breakdown.
type Extreme struct {
	Config space.MicroConfig
	Result *cpu.Result
}

// dimension is one of the ten free Table 1 dimensions that enumerate the
// space. Linked parameters move with theirs (L2 associativity with the L2
// size, the FU mix with the width, LSQ and TLBs with the window) and the
// L1 associativities never vary, so no other schema field moves alone.
type dimension struct {
	name  string
	value func(space.MicroConfig) int
	label func(int) string
}

func withUnit(unit string) func(int) string {
	return func(v int) string { return strconv.Itoa(v) + unit }
}

var dimensions = [...]dimension{
	{"l1d_size", func(c space.MicroConfig) int { return c.L1DSizeKB }, withUnit("KB")},
	{"l1d_line", func(c space.MicroConfig) int { return c.L1DLineB }, withUnit("B")},
	{"l1i_size", func(c space.MicroConfig) int { return c.L1ISizeKB }, withUnit("KB")},
	{"l1i_line", func(c space.MicroConfig) int { return c.L1ILineB }, withUnit("B")},
	{"l2", func(c space.MicroConfig) int { return c.L2SizeKB }, withUnit("KB")},
	{"l3", func(c space.MicroConfig) int { return c.L3SizeMB }, withUnit("MB")},
	{"bpred", func(c space.MicroConfig) int { return int(c.BPred) }, func(v int) string { return bpred.Kind(v).String() }},
	{"width", func(c space.MicroConfig) int { return c.Width }, strconv.Itoa},
	{"window", func(c space.MicroConfig) int { return c.RUU }, strconv.Itoa},
	{"issue_wrong", func(c space.MicroConfig) int {
		if c.IssueWrong {
			return 1
		}
		return 0
	}, func(v int) string { return strconv.FormatBool(v == 1) }},
}

// dimKey is a point's value in each dimension.
type dimKey [len(dimensions)]int

// RunMicroCalibration reproduces the §4.1 simulation statistics (range and
// variance of cycles across the design space) for the figured benchmarks,
// and measures each one's response to the Table 1 dimensions.
func RunMicroCalibration(ctx context.Context, cfg Config) (*MicroCalibration, error) {
	paper := PaperMicroStats()
	m := &MicroCalibration{}
	for _, prof := range trace.FiguredProfiles() {
		tr, cfgs, cycles, err := sweep(ctx, prof.Name, cfg)
		if err != nil {
			return nil, err
		}
		rng, err := stat.Range(cycles)
		if err != nil {
			return nil, err
		}
		p := paper[prof.Name]
		m.Rows = append(m.Rows, CalibrationRow{
			Name: prof.Name, Points: len(cycles),
			Range: rng, NormVar: stat.NormalizedVariance(cycles),
			PaperRange: p.Range, PaperVar: p.NormVar,
		})
		r := respond(prof.Name, cfgs, cycles)
		for _, e := range []*Extreme{&r.Fastest, &r.Slowest} {
			if e.Result, err = cpu.Simulate(e.Config.CPUConfig(), tr); err != nil {
				return nil, err
			}
		}
		m.Responses = append(m.Responses, r)
	}
	return m, nil
}

// respond measures the distinct cycle counts, the per-dimension means, the
// inert dimensions and the fastest and slowest configurations of a
// simulated space; the extremes' Results are left for the caller.
func respond(name string, cfgs []space.MicroConfig, cycles []float64) SpaceResponse {
	r := SpaceResponse{Name: name}
	distinct := map[float64]bool{}
	fastest, slowest := 0, 0
	keys := make([]dimKey, len(cfgs))
	for i, c := range cycles {
		distinct[c] = true
		if c < cycles[fastest] {
			fastest = i
		}
		if c > cycles[slowest] {
			slowest = i
		}
		for d, dim := range dimensions {
			keys[i][d] = dim.value(cfgs[i])
		}
	}
	r.Distinct = len(distinct)
	for d, dim := range dimensions {
		sum, n := map[int]float64{}, map[int]int{}
		for i, k := range keys {
			sum[k[d]] += cycles[i]
			n[k[d]]++
		}
		values := make([]int, 0, len(n))
		for v := range n {
			values = append(values, v)
		}
		sort.Ints(values)
		dr := DimResponse{Name: dim.name}
		for _, v := range values {
			dr.Values = append(dr.Values, dim.label(v))
			dr.Means = append(dr.Means, sum[v]/float64(n[v]))
		}
		lo, _ := stat.Min(dr.Means)
		hi, _ := stat.Max(dr.Means)
		dr.Spread = 100 * (hi/lo - 1)
		r.Dims = append(r.Dims, dr)
		if inert(keys, cycles, d) {
			r.Inert = append(r.Inert, dim.name)
		}
	}
	r.Fastest.Config, r.Slowest.Config = cfgs[fastest], cfgs[slowest]
	return r
}

// inert reports whether dimension d never moves cycles: some two points
// agree on every other dimension, and all points that agree on every
// other dimension have one cycle count.
func inert(keys []dimKey, cycles []float64, d int) bool {
	first := map[dimKey]float64{}
	paired := false
	for i, k := range keys {
		k[d] = 0
		c, ok := first[k]
		if !ok {
			first[k] = cycles[i]
			continue
		}
		if c != cycles[i] {
			return false
		}
		paired = true
	}
	return paired
}

// WriteText renders the §4.1 statistics, then each benchmark's distinct
// cycle counts and inert dimensions, its mean cycles at each value of
// each dimension, and its fastest and slowest points.
func (m *MicroCalibration) WriteText(w io.Writer) error {
	if err := WriteCalibration(w, "Simulation statistics (§4.1)", m.Rows); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, r := range m.Responses {
		fmt.Fprintf(tw, "%s: %d distinct cycle counts of %d points, inert dimensions [%s]; mean cycles by dimension value:\n",
			r.Name, r.Distinct, m.Rows[i].Points, strings.Join(r.Inert, " "))
		for _, d := range r.Dims {
			line := fmt.Sprintf("  %s\tspread %.1f%%", d.Name, d.Spread)
			for i, v := range d.Values {
				line += fmt.Sprintf("\t%s=%.0f", v, d.Means[i])
			}
			fmt.Fprintln(tw, line)
		}
		for i, e := range []Extreme{r.Fastest, r.Slowest} {
			res := e.Result
			line := fmt.Sprintf("  %s: %.0f cyc (CPI %.2f)", [...]string{"fastest", "slowest"}[i], res.Cycles, res.Cycles/float64(res.Instructions))
			for _, dim := range dimensions {
				line += " " + dim.name + "=" + dim.label(dim.value(e.Config))
			}
			fmt.Fprintln(tw, line)
			fmt.Fprintf(tw, "    base=%.0f branch=%.0f fetch=%.0f mem=%.0f tlb=%.0f bmiss=%d/%d\n",
				res.BaseCycles, res.BranchCycles, res.FetchCycles, res.MemCycles, res.TLBCycles,
				res.BranchMisses, res.Branches)
		}
	}
	return tw.Flush()
}

// RunSpecCalibration reproduces the §4.1 SPEC family statistics.
func RunSpecCalibration(ctx context.Context, cfg Config) ([]CalibrationRow, error) {
	var rows []CalibrationRow
	for _, fam := range specdata.Families() {
		recs, err := specdata.Generate(fam, cfg.seed())
		if err != nil {
			return nil, err
		}
		n, rng, nvar, err := specdata.FamilyStatistics(recs)
		if err != nil {
			return nil, err
		}
		_, pr, pv := fam.PaperStats()
		rows = append(rows, CalibrationRow{
			Name: fam.Name, Points: n, Range: rng, NormVar: nvar,
			PaperRange: pr, PaperVar: pv,
		})
	}
	return rows, nil
}

// WriteCalibration renders calibration rows.
func WriteCalibration(w io.Writer, title string, rows []CalibrationRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title)
	fmt.Fprintln(tw, "name\tpoints\trange\tpaper\tnvar\tpaper")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.3f\t%.2f\n",
			r.Name, r.Points, r.Range, r.PaperRange, r.NormVar, r.PaperVar)
	}
	return tw.Flush()
}

// ImportanceReport reproduces the §4.4 analysis for one family: the
// neural network's sensitivity-based importances and the linear model's
// standardized betas side by side.
type ImportanceReport struct {
	Family string
	NN     []core.FieldImportance
	LR     []core.FieldImportance
}

// RunImportance trains an NN-Q and an LR-E model on a family's 2005 data
// and reports both models' field importance rankings.
func RunImportance(ctx context.Context, family string, cfg Config) (*ImportanceReport, error) {
	fam, err := specdata.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	recs, err := specdata.Generate(fam, cfg.seed())
	if err != nil {
		return nil, err
	}
	train, err := specdata.BuildDataset(recs, 2005)
	if err != nil {
		return nil, err
	}
	nn, err := core.Train(ctx, core.NNQ, train, cfg.trainCfg())
	if err != nil {
		return nil, err
	}
	nnImp, err := nn.Importances(train)
	if err != nil {
		return nil, err
	}
	lr, err := core.Train(ctx, core.LRE, train, cfg.trainCfg())
	if err != nil {
		return nil, err
	}
	lrImp, err := lr.Importances(train)
	if err != nil {
		return nil, err
	}
	return &ImportanceReport{Family: family, NN: nnImp, LR: lrImp}, nil
}

// WriteText renders the importance report.
func (r *ImportanceReport) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Input importance - %s (paper §4.4)\n", r.Family)
	fmt.Fprintln(tw, "rank\tNN field\tscore\tLR field\t|std beta|")
	n := len(r.NN)
	if len(r.LR) > n {
		n = len(r.LR)
	}
	if n > 8 {
		n = 8
	}
	get := func(xs []core.FieldImportance, i int) (string, string) {
		if i >= len(xs) {
			return "", ""
		}
		return xs[i].Field, fmt.Sprintf("%.3f", xs[i].Score)
	}
	for i := 0; i < n; i++ {
		nf, ns := get(r.NN, i)
		lf, ls := get(r.LR, i)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", i+1, nf, ns, lf, ls)
	}
	return tw.Flush()
}
