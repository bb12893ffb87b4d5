package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"perfpred/internal/core"
	"perfpred/internal/space"
	"perfpred/internal/specdata"
)

// fastCfg keeps substrate and training costs small for unit testing.
func fastCfg() Config {
	return Config{
		Seed:        1,
		Workers:     4,
		EpochScale:  0.25,
		TraceLen:    60_000,
		SpaceStride: 48,
	}
}

func TestRunSampledStudy(t *testing.T) {
	fracs := []float64{0.2, 0.5}
	kinds := []core.ModelKind{core.LRB, core.NNS}
	s, err := RunSampledStudy(context.Background(), "applu", fracs, kinds, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s.Bench != "applu" || s.SpacePoints != 96 {
		t.Fatalf("study meta wrong: %s %d", s.Bench, s.SpacePoints)
	}
	if len(s.Cells) != len(fracs)*len(kinds) {
		t.Fatalf("%d cells", len(s.Cells))
	}
	for _, f := range fracs {
		for _, k := range kinds {
			c, ok := s.Cell(f, k)
			if !ok {
				t.Fatalf("missing cell %v/%v", f, k)
			}
			if c.TrueMAPE <= 0 || c.EstimateMax <= 0 {
				t.Fatalf("degenerate cell %+v", c)
			}
			if c.EstimateMax < c.EstimateMean {
				t.Fatalf("max < mean in %+v", c)
			}
		}
		if _, ok := s.SelectKind[f]; !ok {
			t.Fatalf("no selection at %v", f)
		}
	}
	if _, ok := s.Cell(0.99, core.LRB); ok {
		t.Fatal("phantom cell")
	}
}

func TestRunSampledStudyErrors(t *testing.T) {
	if _, err := RunSampledStudy(context.Background(), "applu", nil, []core.ModelKind{core.LRB}, fastCfg()); err == nil {
		t.Fatal("no fractions: want error")
	}
	if _, err := RunSampledStudy(context.Background(), "applu", []float64{0.2}, nil, fastCfg()); err == nil {
		t.Fatal("no kinds: want error")
	}
	if _, err := RunSampledStudy(context.Background(), "doom3", []float64{0.2}, []core.ModelKind{core.LRB}, fastCfg()); err == nil {
		t.Fatal("unknown bench: want error")
	}
}

func TestSampledStudyWriteText(t *testing.T) {
	s, err := RunSampledStudy(context.Background(), "applu", []float64{0.25}, []core.ModelKind{core.LRB}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"applu", "LR-B", "Select", "25%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestComputeTable3(t *testing.T) {
	cfg := fastCfg()
	fracs := []float64{0.25, 0.5}
	kinds := []core.ModelKind{core.LRB, core.NNS}
	var studies []*SampledStudy
	for _, b := range []string{"applu", "gcc"} {
		s, err := RunSampledStudy(context.Background(), b, fracs, kinds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, s)
	}
	t3, err := ComputeTable3(studies)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Benches) != 2 || len(t3.SelectAvg) != 2 {
		t.Fatalf("table meta wrong: %+v", t3)
	}
	for _, k := range kinds {
		for fi := range fracs {
			if t3.Avg[k][fi] <= 0 {
				t.Fatalf("avg %v@%d not positive", k, fi)
			}
		}
	}
	var buf bytes.Buffer
	if err := t3.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("render missing title")
	}
	if _, err := ComputeTable3(nil); err == nil {
		t.Fatal("no studies: want error")
	}
}

func TestPaperReferenceTables(t *testing.T) {
	t3 := PaperTable3()
	for _, k := range []string{"LR-B", "NN-E", "NN-S", "Select"} {
		if len(t3[k]) != 5 {
			t.Fatalf("paper Table 3 row %s has %d entries", k, len(t3[k]))
		}
	}
	t2 := PaperTable2()
	if len(t2) != 7 {
		t.Fatalf("paper Table 2 has %d families", len(t2))
	}
	if t2["Pentium 4"].Err != 1.5 {
		t.Fatal("paper value wrong")
	}
}

func TestRunChronoStudy(t *testing.T) {
	kinds := []core.ModelKind{core.LRE, core.LRB, core.NNS}
	s, err := RunChronoStudy(context.Background(), "Pentium D", kinds, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s.TrainSize != 36 || s.TestSize != 35 {
		t.Fatalf("sizes %d/%d", s.TrainSize, s.TestSize)
	}
	if len(s.Reports) != 3 {
		t.Fatalf("%d reports", len(s.Reports))
	}
	for _, rep := range s.Reports {
		if rep.TrueMAPE <= 0 || rep.TrueMAPE > 50 {
			t.Fatalf("%v error %.2f implausible", rep.Kind, rep.TrueMAPE)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pentium D") {
		t.Fatal("render missing family")
	}
	if _, err := RunChronoStudy(context.Background(), "Itanium", kinds, fastCfg()); err == nil {
		t.Fatal("unknown family: want error")
	}
}

// TestChronologicalShape asserts the paper's §4.3 headline: linear
// regression beats the neural networks when predicting next-year systems.
func TestChronologicalShape(t *testing.T) {
	cfg := fastCfg()
	cfg.EpochScale = 0.5
	for _, fam := range []string{"Pentium D", "Opteron 2"} {
		s, err := RunChronoStudy(context.Background(), fam, []core.ModelKind{core.LRE, core.NNQ}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lr, nn float64
		for _, rep := range s.Reports {
			if rep.Kind == core.LRE {
				lr = rep.TrueMAPE
			} else {
				nn = rep.TrueMAPE
			}
		}
		if lr >= nn {
			t.Errorf("%s: LR (%.2f) should beat NN (%.2f) chronologically", fam, lr, nn)
		}
		if lr > 8 {
			t.Errorf("%s: LR error %.2f too high (paper: low single digits)", fam, lr)
		}
	}
}

func TestRunTable2(t *testing.T) {
	kinds := []core.ModelKind{core.LRE, core.LRB}
	t2 := &Table2{}
	for _, fam := range specdata.Families() {
		s, err := RunChronoStudy(context.Background(), fam.Name, kinds, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		t2.Studies = append(t2.Studies, s)
	}
	if len(t2.Studies) != 7 {
		t.Fatalf("%d families", len(t2.Studies))
	}
	var buf bytes.Buffer
	if err := t2.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"Xeon", "Opteron 8"} {
		if !strings.Contains(buf.String(), fam) {
			t.Errorf("Table 2 render missing %s", fam)
		}
	}
}

func TestRunCalibrations(t *testing.T) {
	cfg := fastCfg()
	micro, err := RunMicroCalibration(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(micro.Rows) != 5 || len(micro.Responses) != 5 {
		t.Fatalf("%d micro rows, %d responses", len(micro.Rows), len(micro.Responses))
	}
	for _, r := range micro.Rows {
		if r.Range <= 1 || r.PaperRange == 0 {
			t.Fatalf("row %+v degenerate", r)
		}
	}
	spec, err := RunSpecCalibration(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) != 7 {
		t.Fatalf("%d spec rows", len(spec))
	}
	for i, r := range micro.Responses {
		points := micro.Rows[i].Points
		if r.Distinct < 2 || r.Distinct > points || len(r.Dims) != len(dimensions) {
			t.Fatalf("response %s: %d distinct of %d points, %d dims", r.Name, r.Distinct, points, len(r.Dims))
		}
		if r.Fastest.Result.Cycles > r.Slowest.Result.Cycles {
			t.Fatalf("response %s: fastest %.0f > slowest %.0f cycles", r.Name, r.Fastest.Result.Cycles, r.Slowest.Result.Cycles)
		}
	}
	var buf bytes.Buffer
	if err := micro.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteCalibration(&buf, "test", spec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mcf", "Xeon", "l1i_size", "fastest", "slowest"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("calibration render missing %q", want)
		}
	}
}

func TestRunImportance(t *testing.T) {
	cfg := fastCfg()
	cfg.EpochScale = 0.5
	rep, err := RunImportance(context.Background(), "Opteron", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NN) == 0 || len(rep.LR) == 0 {
		t.Fatal("empty importance lists")
	}
	// The paper's §4.4: processor speed dominates both models for Opteron.
	if rep.LR[0].Field != "speed_mhz" {
		t.Errorf("LR top field = %s, want speed_mhz", rep.LR[0].Field)
	}
	if rep.NN[0].Field != "speed_mhz" {
		t.Errorf("NN top field = %s, want speed_mhz", rep.NN[0].Field)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speed_mhz") {
		t.Fatal("render missing top field")
	}
	if _, err := RunImportance(context.Background(), "Itanium", cfg); err == nil {
		t.Fatal("unknown family: want error")
	}
}

// TestRespondInert checks the sensitivity and inert logic on the full
// Table 1 space with synthetic cycle counts.
func TestRespondInert(t *testing.T) {
	cfgs := space.Enumerate()
	cycles := make([]float64, len(cfgs))
	for i, c := range cfgs {
		cycles[i] = float64(c.L2SizeKB + c.Width)
	}
	r := respond("synthetic", cfgs, cycles)
	if r.Distinct != 4 {
		t.Fatalf("%d distinct cycle counts, want 4", r.Distinct)
	}
	if f, s := r.Fastest.Config, r.Slowest.Config; f.L2SizeKB != 256 || f.Width != 4 || s.L2SizeKB != 1024 || s.Width != 8 {
		t.Fatalf("fastest %+v, slowest %+v", f, s)
	}
	// l2 moves l2_assoc with it and width moves the FU mix, but grouping
	// is by dimension, so only the two that move cycles are not inert.
	want := "l1d_size,l1d_line,l1i_size,l1i_line,l3,bpred,window,issue_wrong"
	if got := strings.Join(r.Inert, ","); got != want {
		t.Fatalf("inert %s, want %s", got, want)
	}
	var names []string
	for _, d := range r.Dims {
		names = append(names, d.Name)
		if d.Name == "l2" && (strings.Join(d.Values, ",") != "256KB,1024KB" || d.Means[0] != 262 || d.Means[1] != 1030) {
			t.Fatalf("l2 response %+v", d)
		}
		if d.Name == "width" && math.Abs(d.Spread-100*(648.0/644-1)) > 1e-9 {
			t.Fatalf("width spread %v", d.Spread)
		}
	}
	if got := strings.Join(names, ","); got != "l1d_size,l1d_line,l1i_size,l1i_line,l2,l3,bpred,width,window,issue_wrong" {
		t.Fatalf("dimensions %s", got)
	}

	// One group that differs only in l1i_size and has two cycle counts is
	// enough to make l1i_size sensitive.
	for i, c := range cfgs {
		cycles[i] = 1
		base := cfgs[0]
		base.L1ISizeKB = 64
		if c == base {
			cycles[i] = 2
		}
	}
	r = respond("one group", cfgs, cycles)
	for _, name := range r.Inert {
		if name == "l1i_size" {
			t.Fatalf("l1i_size reported inert with one sensitive group: %v", r.Inert)
		}
	}

	// Two points that differ in every dimension form no group, so no
	// dimension can be called inert.
	r = respond("sparse", []space.MicroConfig{cfgs[0], cfgs[len(cfgs)-1]}, []float64{1, 1})
	if len(r.Inert) != 0 {
		t.Fatalf("inert %v without any group", r.Inert)
	}
}
