// Command simulate is the repository's one simulator front end, the
// stand-in for SimpleScalar's sim-outorder: it runs the cycle-approximate
// processor model on one configuration over the whole trace and prints
// its cycle breakdown, its branch mispredictions and every memory level's
// access and miss counts. `-bpred` selects the predictor, so running each
// predictor in turn gives per-predictor mispredict counts.
//
// Usage:
//
//	simulate -bench mcf
//	simulate -bench gcc -width 8 -l1d 64 -l2 1024 -l3 -bpred combination
//	simulate -bench gcc -bpred bimodal
package main

import (
	"flag"
	"fmt"
	"log"

	"perfpred"
	"perfpred/internal/bpred"
	"perfpred/internal/cpu"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	bench := flag.String("bench", "mcf", "benchmark workload")
	traceLen := flag.Int("tracelen", 0, "trace length (0 = recommendation)")
	seed := flag.Int64("seed", 1, "trace seed")
	l1d := flag.Int("l1d", 32, "L1D size KB (16/32/64)")
	l1dLine := flag.Int("l1dline", 64, "L1D line bytes (32/64)")
	l1i := flag.Int("l1i", 32, "L1I size KB")
	l1iLine := flag.Int("l1iline", 64, "L1I line bytes")
	l2 := flag.Int("l2", 1024, "L2 size KB (256 or 1024)")
	l3 := flag.Bool("l3", false, "include the 8MB L3")
	bp := flag.String("bpred", "combination", "branch predictor (perfect/bimodal/2level/combination)")
	width := flag.Int("width", 4, "pipeline width (4 or 8)")
	issueWrong := flag.Bool("issuewrong", false, "wrong-path issue")
	big := flag.Bool("bigwindow", false, "large window (RUU 256/LSQ 128/big TLBs)")
	flag.Parse()

	kind, err := bpred.ParseKind(*bp)
	if err != nil {
		log.Fatal(err)
	}
	cfg := perfpred.MicroConfig{
		L1DSizeKB: *l1d, L1DLineB: *l1dLine, L1DAssoc: 4,
		L1ISizeKB: *l1i, L1ILineB: *l1iLine, L1IAssoc: 4,
		L2SizeKB: *l2, L2LineB: 128, L2Assoc: 4,
		BPred: kind, Width: *width, IssueWrong: *issueWrong,
		RUU: 128, LSQ: 64, ITLBKB: 256, DTLBKB: 512,
		FU: cpu.FUConfig{IntALU: 4, IntMult: 2, MemPort: 2, FPALU: 4, FPMult: 2},
	}
	if *l2 == 1024 {
		cfg.L2Assoc = 8
	}
	if *l3 {
		cfg.L3SizeMB, cfg.L3LineB, cfg.L3Assoc = 8, 256, 8
	}
	if *width == 8 {
		cfg.FU = cpu.FUConfig{IntALU: 8, IntMult: 4, MemPort: 4, FPALU: 8, FPMult: 4}
	}
	if *big {
		cfg.RUU, cfg.LSQ, cfg.ITLBKB, cfg.DTLBKB = 256, 128, 1024, 2048
	}

	res, err := perfpred.SimulateConfig(*bench, cfg, perfpred.SimOptions{TraceLen: *traceLen, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on l1d=%d/%dB l1i=%d/%dB l2=%dKB l3=%v bpred=%s width=%d window=%d iw=%v\n",
		*bench, *l1d, *l1dLine, *l1i, *l1iLine, *l2, *l3, kind, *width, cfg.RUU, *issueWrong)
	fmt.Printf("  instructions : %d\n", res.Instructions)
	fmt.Printf("  cycles       : %.0f (IPC %.3f)\n", res.Cycles, res.IPC)
	fmt.Printf("  breakdown    : base %.0f | branch %.0f | fetch %.0f | mem %.0f | tlb %.0f\n",
		res.BaseCycles, res.BranchCycles, res.FetchCycles, res.MemCycles, res.TLBCycles)
	fmt.Printf("  branches     : %d (%d mispredicted, %.2f%%)\n",
		res.Branches, res.BranchMisses, 100*float64(res.BranchMisses)/float64(max(res.Branches, 1)))
	st := res.MemStats
	fmt.Printf("  L1I          : %d accesses, %d misses (%.2f%%)\n", st.L1IAccesses, st.L1IMisses, pct(st.L1IMisses, st.L1IAccesses))
	fmt.Printf("  L1D          : %d accesses, %d misses (%.2f%%)\n", st.L1DAccesses, st.L1DMisses, pct(st.L1DMisses, st.L1DAccesses))
	fmt.Printf("  L2           : %d accesses, %d misses (%.2f%%)\n", st.L2Accesses, st.L2Misses, pct(st.L2Misses, st.L2Accesses))
	if st.L3Accesses > 0 {
		fmt.Printf("  L3           : %d accesses, %d misses (%.2f%%)\n", st.L3Accesses, st.L3Misses, pct(st.L3Misses, st.L3Accesses))
	}
	fmt.Printf("  TLB misses   : %d instruction, %d data\n", st.ITLBMisses, st.DTLBMisses)
	fmt.Printf("  memory trips : %d\n", st.MemAccesses)
}

func pct(miss, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(miss) / float64(total)
}
