// Command benchjson converts `go test -bench` text output into a stable
// JSON snapshot, optionally joining a baseline snapshot to compute
// speedups. It is the tooling behind `make bench`, which regenerates
// BENCH_6.json (the neural and tree kernels; BENCH_3.json is the
// neural-only snapshot it replaced) so the repo carries a perf
// trajectory across PRs:
//
//	go test -run xxx -bench 'Train|PredictAll' -benchmem -count=2 ./internal/neural ./internal/tree \
//	    | go run ./cmd/benchjson -baseline BENCH_baseline.json -o BENCH_6.json
//
// Repeated runs of the same benchmark (-count=N) are averaged. The output
// maps benchmark names (with the Benchmark prefix and any -GOMAXPROCS
// suffix stripped) to ns/op, B/op, allocs/op, and — when a baseline is
// given — the baseline ns/op and the speedup factor. Parsing lives in
// internal/benchfmt, shared with cmd/benchdiff which gates fresh runs
// against these snapshots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"perfpred/internal/benchfmt"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baselinePath := flag.String("baseline", "", "baseline snapshot JSON to join for speedups")
	flag.Parse()

	snap, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	if *baselinePath != "" {
		base, err := benchfmt.Load(*baselinePath)
		if err != nil {
			fatal(fmt.Errorf("reading baseline: %w", err))
		}
		for name, r := range snap.Benchmarks {
			b, ok := base.Benchmarks[name]
			if !ok || r.NsPerOp == 0 {
				continue
			}
			r.BaselineNsPerOp = b.NsPerOp
			r.Speedup = benchfmt.Round3(b.NsPerOp / r.NsPerOp)
			snap.Benchmarks[name] = r
		}
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
