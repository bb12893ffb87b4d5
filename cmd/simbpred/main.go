// Command simbpred is the analog of SimpleScalar's sim-bpred: it runs a
// workload's branch stream through every predictor of the design space and
// reports misprediction rates side by side.
//
//	simbpred -bench gcc
//	simbpred -bench mcf -entries 4096
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"perfpred/internal/bpred"
	"perfpred/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simbpred: ")
	bench := flag.String("bench", "gcc", "benchmark workload")
	traceLen := flag.Int("tracelen", 0, "trace length (0 = recommendation)")
	seed := flag.Int64("seed", 1, "trace seed")
	entries := flag.Int("entries", 2048, "predictor table entries (power of two)")
	flag.Parse()

	tr, err := trace.GenerateBenchmark(*bench, *traceLen, *seed)
	if err != nil {
		log.Fatal(err)
	}

	var pcs []uint64
	var outs []bool
	for i := range tr.Instrs {
		if tr.Instrs[i].Class == trace.Branch {
			pcs = append(pcs, tr.Instrs[i].PC)
			outs = append(outs, tr.Instrs[i].Taken)
		}
	}
	if len(pcs) == 0 {
		log.Fatal("trace has no branches")
	}
	fmt.Printf("%s: %d instructions, %d conditional branches (%.1f%%)\n\n",
		tr.Name, tr.Len(), len(pcs), 100*float64(len(pcs))/float64(tr.Len()))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "predictor\tmispredicts\trate")
	for _, k := range bpred.Kinds() {
		p, err := bpred.New(k, *entries)
		if err != nil {
			log.Fatal(err)
		}
		rate, err := bpred.MispredictRate(p, pcs, outs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%v\t%d\t%.3f%%\n", k, int(rate*float64(len(pcs))+0.5), 100*rate)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
