// Command chrono runs one chronological prediction (paper Figure 1b):
// train the candidate models on a family's 2005 SPEC announcements and
// predict its 2006 announcements.
//
// Usage:
//
//	chrono -family "Opteron 2"
//	chrono -family Xeon -models all -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"perfpred"
	"perfpred/internal/progress"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chrono: ")
	family := flag.String("family", "Opteron", "system family (see -list)")
	modelsArg := flag.String("models", "figure", "comma-separated model kinds, 'figure' (the 9 of Figures 7-8) or 'all' (every registered family incl. TREE-B)")
	seed := flag.Int64("seed", 1, "master seed")
	workers := flag.Int("workers", 0, "parallel workers")
	epochs := flag.Float64("epochs", 1.0, "neural epoch scale")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	verbose := flag.Bool("v", false, "log per-task progress (durations, folds, epochs)")
	report := flag.String("report", "", "write a machine-readable JSON RunReport to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (Prometheus text /metrics, expvar /debug/vars, pprof /debug/pprof), e.g. localhost:6060")
	list := flag.Bool("list", false, "list available families and models")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rec := perfpred.NewRecorder()
	hook := rec.Hook()
	if *verbose {
		hook = progress.New(os.Stderr, rec).Hook()
	}
	if *metricsAddr != "" {
		addr, _, err := perfpred.StartMetricsServer(*metricsAddr, rec.Registry())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}

	if *list {
		fmt.Println("families:", strings.Join(perfpred.SPECFamilies(), ", "))
		var names []string
		for _, k := range perfpred.AllModels() {
			names = append(names, k.String())
		}
		fmt.Println("models:", strings.Join(names, ", "))
		return
	}

	var kinds []perfpred.ModelKind
	switch *modelsArg {
	case "figure":
		kinds = perfpred.FigureModels()
	case "all":
		kinds = perfpred.AllModels()
	default:
		for _, part := range strings.Split(*modelsArg, ",") {
			k, err := perfpred.ParseModelKind(strings.TrimSpace(part))
			if err != nil {
				log.Fatal(err)
			}
			kinds = append(kinds, k)
		}
	}

	recs, err := perfpred.GenerateSPECData(*family, *seed)
	if err != nil {
		log.Fatal(err)
	}
	train, err := perfpred.SPECDataset(recs, 2005)
	if err != nil {
		log.Fatal(err)
	}
	future, err := perfpred.SPECDataset(recs, 2006)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: training on %d systems announced in 2005, predicting %d systems of 2006\n",
		*family, train.Len(), future.Len())

	start := time.Now()
	res, err := perfpred.RunChronological(ctx, train, future, kinds, perfpred.TrainConfig{
		Seed: *seed, Workers: *workers, EpochScale: *epochs, Hook: hook,
	})
	if err != nil {
		log.Fatal(err)
	}
	finished := time.Now()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\terror%\t±stddev\testimate(max)")
	for _, rep := range res.Reports {
		fmt.Fprintf(tw, "%v\t%.2f\t%.2f\t%.2f\n", rep.Kind, rep.TrueMAPE, rep.StdAPE, rep.Estimate.Max)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest on 2006: %v (%.2f%%); selected from 2005 estimates alone: %v (%.2f%%)\n",
		res.Best, res.BestTrueMAPE, res.Selected, res.SelectedTrueMAPE)

	if *report != "" {
		rep := perfpred.BuildChronoReport(res, train.Len(), future.Len(), perfpred.ReportMeta{
			Command:    "chrono",
			Target:     *family,
			Seed:       *seed,
			Workers:    *workers,
			EpochScale: *epochs,
			WallClock: perfpred.WallClock{
				TotalSeconds: finished.Sub(start).Seconds(),
				ModelSeconds: finished.Sub(start).Seconds(),
			},
		}, rec)
		if err := rep.WriteFile(*report); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report: %s\n", *report)
	}
}
