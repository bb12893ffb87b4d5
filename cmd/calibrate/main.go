// Command calibrate reports how the simulated design space responds to
// each benchmark workload: the cycle range and normalized variance across
// a systematic sample of the Table 1 space (the paper's §4.1 statistics),
// plus per-parameter sensitivities and the component breakdown of the
// fastest and slowest sampled configurations. It is the tool used to tune
// the workload profiles against the paper's published numbers.
//
// Usage:
//
//	calibrate [-bench name] [-n instrs] [-stride k] [-seed s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
	"perfpred/internal/experiments"
	"perfpred/internal/space"
	"perfpred/internal/stat"
	"perfpred/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	benchName := flag.String("bench", "", "benchmark to calibrate (default: the five figured ones)")
	n := flag.Int("n", 0, "trace length in instructions (default: profile SimLen)")
	stride := flag.Int("stride", 11, "systematic sampling stride over the 4608-point space")
	seed := flag.Int64("seed", 1, "trace generation seed")
	flag.Parse()

	var profs []*trace.Profile
	if *benchName != "" {
		p, err := trace.ProfileByName(*benchName)
		if err != nil {
			log.Fatal(err)
		}
		profs = []*trace.Profile{p}
	} else {
		profs = trace.FiguredProfiles()
	}

	all := space.Enumerate()
	var cfgs []space.MicroConfig
	for i := 0; i < len(all); i += *stride {
		cfgs = append(cfgs, all[i])
	}
	fmt.Printf("sampling %d of %d configurations\n\n", len(cfgs), len(all))

	paperTargets := experiments.PaperMicroStats()

	for _, p := range profs {
		length := *n
		if length == 0 {
			length = p.SimLen
		}
		tr, err := trace.Generate(p, length, *seed)
		if err != nil {
			log.Fatal(err)
		}
		eval, err := cpu.NewEvaluator(tr)
		if err != nil {
			log.Fatal(err)
		}
		cycles, err := space.Sweep(context.Background(), eval, cfgs, engine.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rng, err := stat.Range(cycles)
		if err != nil {
			log.Fatal(err)
		}
		nv := stat.NormalizedVariance(cycles)
		target := paperTargets[p.Name]
		fmt.Printf("=== %s (n=%d)  range %.2f (paper %.2f)  nvar %.3f (paper %.2f)\n",
			p.Name, length, rng, target.Range, nv, target.NormVar)

		// Fastest and slowest sampled configurations with breakdowns.
		fastest, slowest := 0, 0
		for i, c := range cycles {
			if c < cycles[fastest] {
				fastest = i
			}
			if c > cycles[slowest] {
				slowest = i
			}
		}
		for _, pick := range []struct {
			label string
			idx   int
		}{{"fastest", fastest}, {"slowest", slowest}} {
			res, err := eval.Simulate(cfgs[pick.idx].CPUConfig())
			if err != nil {
				log.Fatal(err)
			}
			c := cfgs[pick.idx]
			fmt.Printf("  %s: %.0f cyc (CPI %.2f) l1d=%d/%d l1i=%d/%d l2=%d l3=%d bp=%s w=%d ruu=%d iw=%v\n",
				pick.label, res.Cycles, res.Cycles/float64(res.Instructions),
				c.L1DSizeKB, c.L1DLineB, c.L1ISizeKB, c.L1ILineB, c.L2SizeKB, c.L3SizeMB,
				c.BPred, c.Width, c.RUU, c.IssueWrong)
			fmt.Printf("    base=%.0f branch=%.0f fetch=%.0f mem=%.0f tlb=%.0f bmiss=%d/%d\n",
				res.BaseCycles, res.BranchCycles, res.FetchCycles, res.MemCycles, res.TLBCycles,
				res.BranchMisses, res.Branches)
		}

		// Per-parameter sensitivity: mean cycles by value of each dimension.
		dims := []struct {
			name string
			key  func(space.MicroConfig) string
		}{
			{"l1d_size", func(c space.MicroConfig) string { return fmt.Sprintf("%dKB", c.L1DSizeKB) }},
			{"l1d_line", func(c space.MicroConfig) string { return fmt.Sprintf("%dB", c.L1DLineB) }},
			{"l1i_size", func(c space.MicroConfig) string { return fmt.Sprintf("%dKB", c.L1ISizeKB) }},
			{"l1i_line", func(c space.MicroConfig) string { return fmt.Sprintf("%dB", c.L1ILineB) }},
			{"l2", func(c space.MicroConfig) string { return fmt.Sprintf("%dKB", c.L2SizeKB) }},
			{"l3", func(c space.MicroConfig) string { return fmt.Sprintf("%dMB", c.L3SizeMB) }},
			{"bpred", func(c space.MicroConfig) string { return c.BPred.String() }},
			{"width", func(c space.MicroConfig) string { return fmt.Sprintf("%d", c.Width) }},
			{"window", func(c space.MicroConfig) string { return fmt.Sprintf("%d", c.RUU) }},
			{"issue_wrong", func(c space.MicroConfig) string { return fmt.Sprintf("%v", c.IssueWrong) }},
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, d := range dims {
			groups := map[string][]float64{}
			for i, c := range cfgs {
				k := d.key(c)
				groups[k] = append(groups[k], cycles[i])
			}
			keys := make([]string, 0, len(groups))
			for k := range groups {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			line := "  " + d.name + ":\t"
			var lo, hi float64
			for i, k := range keys {
				m := stat.Mean(groups[k])
				if i == 0 || m < lo {
					lo = m
				}
				if i == 0 || m > hi {
					hi = m
				}
				line += fmt.Sprintf("%s=%.0f\t", k, m)
			}
			line += fmt.Sprintf("(spread %.1f%%)", 100*(hi-lo)/lo)
			fmt.Fprintln(w, line)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
