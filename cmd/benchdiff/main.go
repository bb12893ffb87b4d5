// Command benchdiff gates a fresh benchmark run against a committed
// snapshot. It reads `go test -bench` text output on stdin, compares it
// to the baseline JSON (as written by cmd/benchjson), and exits 1 on
// regression:
//
//	go test -run xxx -bench 'CachedPredict|UncachedPredict|HistogramObserve' -benchmem -count=2 ./internal/serve ./internal/obs \
//	    | go run ./cmd/benchdiff -baseline BENCH_8.json
//
// Three rules, chosen so the gate is meaningful on noisy shared CI
// runners without drowning in false alarms:
//
//   - Every benchmark in the baseline must appear in the fresh run; a
//     missing benchmark is a failure (a silently deleted or renamed
//     benchmark would otherwise retire its own regression gate).
//   - ns/op may not exceed baseline * tolerance (4x: CI hardware
//     differs from the machine that wrote the baseline, so only
//     order-of-magnitude regressions are actionable).
//   - allocs/op is deterministic, not timing noise, so it gets no
//     tolerance: any increase fails, and a baseline of 0 allocs/op is
//     an exact pin — the hot path stayed allocation-free.
//
// An intended regression is waived by regenerating the baseline
// (`make bench-serve` for BENCH_8.json, `make bench-active` for
// BENCH_10.json) and committing the new snapshot alongside the change
// that explains it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"perfpred/internal/benchfmt"
)

// tolerance is the max allowed fresh/baseline ns per op ratio.
const tolerance = 4.0

func main() {
	baselinePath := flag.String("baseline", "", "committed snapshot JSON to gate against (required)")
	flag.Parse()
	if *baselinePath == "" {
		fatal(fmt.Errorf("-baseline is required"))
	}
	base, err := benchfmt.Load(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("reading baseline: %w", err))
	}
	fresh, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(fresh.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	lines, failures := compare(base, fresh)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(failures) > 0 {
		fmt.Printf("\nFAIL: %d benchmark regression(s) against %s:\n", len(failures), *baselinePath)
		for _, f := range failures {
			fmt.Println("  - " + f)
		}
		fmt.Printf("\nIf this regression is intended, regenerate and commit %s"+
			" in the same change that explains it.\n", *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("\nPASS: %d benchmark(s) within tolerance %.1fx of %s\n",
		len(base.Benchmarks), tolerance, *baselinePath)
}

// compare applies the three gate rules and returns the per-benchmark
// report lines plus the failure list (empty = gate passes).
func compare(base, fresh *benchfmt.Snapshot) (lines, failures []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		f, ok := fresh.Benchmarks[name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: present in baseline but missing from the fresh run", name))
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = f.NsPerOp / b.NsPerOp
		}
		lines = append(lines, fmt.Sprintf("%-24s baseline %12.2f ns/op  fresh %12.2f ns/op  ratio %5.2fx  allocs %d -> %d",
			name, b.NsPerOp, f.NsPerOp, ratio, b.AllocsPerOp, f.AllocsPerOp))
		if b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*tolerance {
			failures = append(failures,
				fmt.Sprintf("%s: %.2f ns/op is %.2fx the baseline %.2f ns/op (tolerance %.1fx)",
					name, f.NsPerOp, ratio, b.NsPerOp, tolerance))
		}
		switch {
		case b.AllocsPerOp == 0 && f.AllocsPerOp != 0:
			failures = append(failures,
				fmt.Sprintf("%s: baseline pins 0 allocs/op but the fresh run allocates %d", name, f.AllocsPerOp))
		case f.AllocsPerOp > b.AllocsPerOp:
			failures = append(failures,
				fmt.Sprintf("%s: allocs/op grew %d -> %d (allocation counts are deterministic; no tolerance)",
					name, b.AllocsPerOp, f.AllocsPerOp))
		}
	}
	return lines, failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
