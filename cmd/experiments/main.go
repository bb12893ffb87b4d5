// Command experiments regenerates the tables and figures of the paper's
// evaluation section from scratch: synthetic workload + full design-space
// simulation for the sampled-DSE studies (Figures 2–6, Table 3), synthetic
// SPEC announcements + chronological prediction for Figures 7–8 and
// Table 2, the §4.1 calibration statistics with each benchmark's response
// to the Table 1 dimensions, and the §4.4 importance analysis. Each
// study runs once per invocation: Table 3 reuses the Figures 2–6 studies,
// and Table 2 and -exp perapp reuse the Figure 7/8 family studies. Each
// benchmark's design space is simulated once too, however many
// experiments read it.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp figures2-6 -bench mcf -fracs 0.01,0.03,0.05
//	experiments -exp table2 -seed 7
//	experiments -exp active -seed 1
//
// Cost knobs: -tracelen and -stride shrink the simulated substrate;
// -epochs scales neural training.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"perfpred"
	"perfpred/internal/core"
	"perfpred/internal/experiments"
	"perfpred/internal/obs"
	"perfpred/internal/progress"
	"perfpred/internal/space"
	"perfpred/internal/specdata"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	bench := flag.String("bench", "", "restrict figures2-6, table3 and active to one benchmark")
	fracsArg := flag.String("fracs", "0.01,0.02,0.03,0.04,0.05", "sampling fractions for the sampled-DSE studies")
	seed := flag.Int64("seed", 1, "master seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	epochs := flag.Float64("epochs", 1.0, "neural epoch scale")
	traceLen := flag.Int("tracelen", 0, "trace length override (0 = per-benchmark recommendation)")
	stride := flag.Int("stride", 0, "design-space stride (0 = full 4608 points)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	verbose := flag.Bool("v", false, "log per-task progress (durations, folds, epochs)")
	report := flag.String("report", "", "write a machine-readable JSON RunReport (execution statistics) to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (Prometheus text /metrics, expvar /debug/vars, pprof /debug/pprof), e.g. localhost:6060")

	// The experiments read these once the flags are parsed.
	var (
		ctx   context.Context
		cfg   experiments.Config
		fracs []float64
	)
	// Each study runs once: Table 3 reads the Figures 2–6 studies and
	// Table 2 and perapp read the Figure 7/8 family studies.
	var sampled []*experiments.SampledStudy
	sampledStudies := func() ([]*experiments.SampledStudy, error) {
		if sampled != nil {
			return sampled, nil
		}
		benches := perfpred.FiguredBenchmarks()
		if *bench != "" {
			benches = []string{*bench}
		}
		var studies []*experiments.SampledStudy
		for _, b := range benches {
			s, err := experiments.RunSampledStudy(ctx, b, fracs, core.SampledModels(), cfg)
			if err != nil {
				return nil, err
			}
			studies = append(studies, s)
		}
		sampled = studies
		return studies, nil
	}
	chrono := map[string]*experiments.ChronoStudy{}
	chronoStudy := func(family string) (*experiments.ChronoStudy, error) {
		if s, ok := chrono[family]; ok {
			return s, nil
		}
		s, err := experiments.RunChronoStudy(ctx, family, core.FigureModels(), cfg)
		if err != nil {
			return nil, err
		}
		chrono[family] = s
		return s, nil
	}
	printChrono := func(families ...string) error {
		for _, fam := range families {
			s, err := chronoStudy(fam)
			if err != nil {
				return err
			}
			if err := s.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}

	// table lists every -exp name in the order -exp all runs them; the
	// usage text and the unknown-name check read it too.
	table := []struct {
		name string
		run  func() error
	}{
		{"table1", printTable1},
		{"calibration", func() error {
			micro, err := experiments.RunMicroCalibration(ctx, cfg)
			if err != nil {
				return err
			}
			if err := micro.WriteText(os.Stdout); err != nil {
				return err
			}
			specRows, err := experiments.RunSpecCalibration(ctx, cfg)
			if err != nil {
				return err
			}
			return experiments.WriteCalibration(os.Stdout, "SPEC family statistics (§4.1)", specRows)
		}},
		{"figures2-6", func() error {
			studies, err := sampledStudies()
			if err != nil {
				return err
			}
			for i, s := range studies {
				fmt.Printf("Figure %d:\n", 2+i)
				if err := s.WriteText(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}},
		{"table3", func() error {
			studies, err := sampledStudies()
			if err != nil {
				return err
			}
			t3, err := experiments.ComputeTable3(studies)
			if err != nil {
				return err
			}
			if err := t3.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println("paper Table 3 reference:")
			paper := experiments.PaperTable3()
			for _, k := range []string{"LR-B", "NN-E", "NN-S", "Select"} {
				fmt.Printf("  %-6s %v\n", k, paper[k])
			}
			return nil
		}},
		{"figure7", func() error { return printChrono("Xeon", "Pentium 4", "Pentium D") }},
		{"figure8", func() error { return printChrono("Opteron", "Opteron 2", "Opteron 4", "Opteron 8") }},
		{"table2", func() error {
			t2 := &experiments.Table2{}
			for _, fam := range specdata.Families() {
				s, err := chronoStudy(fam.Name)
				if err != nil {
					return err
				}
				t2.Studies = append(t2.Studies, s)
			}
			return t2.WriteText(os.Stdout)
		}},
		{"perapp", func() error {
			rate, err := chronoStudy("Pentium D")
			if err != nil {
				return err
			}
			s, err := experiments.RunPerAppChrono(ctx, rate, cfg)
			if err != nil {
				return err
			}
			return s.WriteText(os.Stdout)
		}},
		{"rolling", func() error {
			for _, fam := range []string{"Opteron 2", "Xeon"} {
				s, err := experiments.RunRollingChrono(ctx, fam, core.FigureModels(), cfg)
				if err != nil {
					return err
				}
				if err := s.WriteText(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}},
		{"crossfamily", func() error {
			r, err := experiments.RunCrossFamily(ctx, "Xeon", "Opteron", core.LRE, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("cross-family check (why the paper analyzes families separately):\n")
			fmt.Printf("  LR-E trained on %s 2005: %.2f%% error within family (2006), %.2f%% on %s systems\n",
				r.TrainFamily, r.WithinTrue, r.CrossTrue, r.TestFamily)
			return nil
		}},
		{"ablations", func() error {
			sel, err := experiments.RunSelectAblation(ctx, "mcf", 0.02, core.SampledModels(), cfg)
			if err != nil {
				return err
			}
			fmt.Printf("Select criterion ablation (mcf @ 2%%): max-fold pick %v → %.2f%%, mean-fold pick %v → %.2f%%, oracle %.2f%%\n",
				sel.MaxPick, sel.MaxTrue, sel.MeanPick, sel.MeanTrue, sel.BestTrue)
			smp, err := experiments.RunSamplingAblation(ctx, "gcc", 0.02, core.NNE, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("Sampling ablation (gcc @ 2%%, NN-E): random %.2f%%, systematic %.2f%%\n",
				smp.RandomTrue, smp.SystematicTrue)
			return nil
		}},
		{"active", func() error {
			apps := perfpred.FiguredBenchmarks()
			if *bench != "" {
				apps = []string{*bench}
			}
			seeds := []int64{*seed, *seed + 1, *seed + 2, *seed + 3, *seed + 4}
			s, err := experiments.RunActiveStudy(ctx, apps, seeds, core.SampledModels(), cfg)
			if err != nil {
				return err
			}
			return s.WriteText(os.Stdout)
		}},
		{"learning", func() error {
			lc, err := experiments.RunLearningCurve(ctx, "mcf", core.NNE,
				[]float64{0.005, 0.01, 0.02, 0.04, 0.08}, cfg)
			if err != nil {
				return err
			}
			return lc.WriteText(os.Stdout)
		}},
		{"importance", func() error {
			for _, fam := range []string{"Opteron", "Pentium D"} {
				rep, err := experiments.RunImportance(ctx, fam, cfg)
				if err != nil {
					return err
				}
				if err := rep.WriteText(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}},
	}
	valid := ""
	for _, e := range table {
		valid += e.name + "|"
	}
	valid += "all"
	exp := flag.String("exp", "all", "experiment: "+valid)
	flag.Parse()

	known := *exp == "all"
	for _, e := range table {
		known = known || *exp == e.name
	}
	if !known {
		log.Fatalf("unknown -exp %q (valid: %s)", *exp, valid)
	}
	var err error
	if fracs, err = parseFracs(*fracsArg); err != nil {
		log.Fatal(err)
	}

	ctx = experiments.WithSweepMemo(context.Background())
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rec := obs.NewRecorder()
	hook := rec.Hook()
	if *verbose {
		hook = progress.New(os.Stderr, rec).Hook()
	}
	if *metricsAddr != "" {
		addr, _, err := obs.StartMetricsServer(*metricsAddr, rec.Registry())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}
	start := time.Now()

	cfg = experiments.Config{
		Seed:        *seed,
		Workers:     *workers,
		EpochScale:  *epochs,
		TraceLen:    *traceLen,
		SpaceStride: *stride,
		Hook:        hook,
	}
	for _, e := range table {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println()
	}

	if *report != "" {
		// Experiment suites span many studies, so the report carries the
		// run identification and execution statistics (the per-study model
		// errors are printed in full by each study's text writer).
		exec := rec.Execution()
		rep := &obs.RunReport{
			Version:    obs.ReportVersion,
			Command:    "experiments",
			Target:     *exp,
			Seed:       *seed,
			Workers:    *workers,
			EpochScale: *epochs,
			WallClock:  obs.WallClock{TotalSeconds: time.Since(start).Seconds()},
			Execution:  &exec,
		}
		if err := rep.WriteFile(*report); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report: %s\n", *report)
	}
}

func parseFracs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q: %w", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func printTable1() error {
	fmt.Printf("Table 1: microprocessor design space — %d configurations per benchmark\n", space.SpaceSize)
	fmt.Println("parameters: L1D {16,32,64}KB × {32,64}B lines, L1I {16,32,64}KB × {32,64}B lines,")
	fmt.Println("  L2 {256KB/4-way, 1MB/8-way}, L3 {none, 8MB/256B/8-way},")
	fmt.Println("  branch predictor {perfect, bimodal, 2level, combination},")
	fmt.Println("  width+FUs {4 / 4-2-2-4-2, 8 / 8-4-4-8-4}, wrong-path issue {no, yes},")
	fmt.Println("  window {RUU 128/LSQ 64/ITLB 256KB/DTLB 512KB, RUU 256/LSQ 128/ITLB 1MB/DTLB 2MB}")
	fmt.Println("benchmarks:", strings.Join(perfpred.Benchmarks(), ", "))
	return nil
}
