// Command simcache is the analog of SimpleScalar's sim-cache: it runs a
// workload trace through a configurable memory hierarchy and reports miss
// rates per level — without any pipeline timing model.
//
//	simcache -bench mcf
//	simcache -bench gcc -l1d 64:64:4 -l2 1024:128:8 -l3 8192:256:8
//
// Cache specs are size-KB:line-B:assoc.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simcache: ")
	bench := flag.String("bench", "mcf", "benchmark workload")
	traceLen := flag.Int("tracelen", 0, "trace length (0 = recommendation)")
	seed := flag.Int64("seed", 1, "trace seed")
	l1d := flag.String("l1d", "32:64:4", "L1D as sizeKB:lineB:assoc")
	l1i := flag.String("l1i", "32:64:4", "L1I as sizeKB:lineB:assoc")
	l2 := flag.String("l2", "1024:128:8", "L2 as sizeKB:lineB:assoc")
	l3 := flag.String("l3", "", "optional L3 as sizeKB:lineB:assoc")
	itlb := flag.Int("itlb", 256, "ITLB coverage KB")
	dtlb := flag.Int("dtlb", 512, "DTLB coverage KB")
	prefetch := flag.Bool("prefetch", false, "enable the next-line L1D prefetcher")
	flag.Parse()

	tr, err := trace.GenerateBenchmark(*bench, *traceLen, *seed)
	if err != nil {
		log.Fatal(err)
	}

	cfg := mem.HierarchyConfig{
		ITLB:             mem.TLBConfig{CoverageKB: *itlb, Assoc: 4, MissPenaltyCycles: 30},
		DTLB:             mem.TLBConfig{CoverageKB: *dtlb, Assoc: 4, MissPenaltyCycles: 30},
		MemLatencyCyc:    200,
		NextLinePrefetch: *prefetch,
	}
	if cfg.L1D, err = parseCache(*l1d, 1); err != nil {
		log.Fatal(err)
	}
	if cfg.L1I, err = parseCache(*l1i, 1); err != nil {
		log.Fatal(err)
	}
	if cfg.L2, err = parseCache(*l2, 12); err != nil {
		log.Fatal(err)
	}
	if *l3 != "" {
		if cfg.L3, err = parseCache(*l3, 40); err != nil {
			log.Fatal(err)
		}
	}
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		log.Fatal(err)
	}

	for i := range tr.Instrs {
		ins := &tr.Instrs[i]
		h.AccessInst(ins.PC)
		switch ins.Class {
		case trace.Load, trace.Store:
			h.AccessData(ins.Addr)
		}
	}
	st := h.Stats()
	fmt.Printf("%s: %d instructions\n", tr.Name, tr.Len())
	level := func(name string, acc, miss uint64) {
		if acc == 0 {
			return
		}
		fmt.Printf("  %-5s %12d accesses %12d misses  %6.3f%% miss rate\n",
			name, acc, miss, 100*float64(miss)/float64(acc))
	}
	level("L1I", st.L1IAccesses, st.L1IMisses)
	level("L1D", st.L1DAccesses, st.L1DMisses)
	level("L2", st.L2Accesses, st.L2Misses)
	level("L3", st.L3Accesses, st.L3Misses)
	fmt.Printf("  TLB   %d instruction misses, %d data misses\n", st.ITLBMisses, st.DTLBMisses)
	fmt.Printf("  memory trips: %d", st.MemAccesses)
	if *prefetch {
		fmt.Printf("   prefetches: %d", st.Prefetches)
	}
	fmt.Println()
}

func parseCache(spec string, latency int) (mem.CacheConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return mem.CacheConfig{}, fmt.Errorf("cache spec %q is not sizeKB:lineB:assoc", spec)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return mem.CacheConfig{}, fmt.Errorf("cache spec %q: %w", spec, err)
		}
		nums[i] = v
	}
	return mem.CacheConfig{SizeKB: nums[0], LineBytes: nums[1], Assoc: nums[2], LatencyCycles: latency}, nil
}
