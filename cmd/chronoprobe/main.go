// Command chronoprobe runs the chronological 2005→2006 experiment for
// every family across all nine models and prints the error table — the
// calibration tool for the paper's Figures 7–8 and Table 2 shapes. It
// prints experiments.RunTable2 next to experiments.PaperTable2.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"perfpred/internal/core"
	"perfpred/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chronoprobe: ")
	seed := flag.Int64("seed", 1, "data generation seed")
	scale := flag.Float64("epochs", 1.0, "neural epoch scale")
	flag.Parse()

	kinds := core.FigureModels()
	t2, err := experiments.RunTable2(context.Background(), kinds, experiments.Config{
		Seed: *seed, EpochScale: *scale,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "family\t"
	for _, k := range kinds {
		header += k.String() + "\t"
	}
	fmt.Fprintln(w, header+"best\tpaper")
	paper := experiments.PaperTable2()
	for _, s := range t2.Studies {
		line := s.Family + "\t"
		for _, rep := range s.Reports {
			line += fmt.Sprintf("%.1f±%.1f\t", rep.TrueMAPE, rep.StdAPE)
		}
		p := paper[s.Family]
		line += fmt.Sprintf("%.1f %s\t%.1f %s", s.BestTrue, s.Best, p.Err, p.Method)
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
