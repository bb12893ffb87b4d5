// Command benchjson converts `go test -bench` text output into a stable
// JSON snapshot. It is the tooling behind `make bench`, which regenerates
// BENCH_6.json (the neural and tree kernels and the LR-B fit):
//
//	go test -run xxx -bench 'Train|PredictAll|FitBackward' -benchmem -count=2 ./internal/neural ./internal/tree ./internal/linreg \
//	    | go run ./cmd/benchjson -o BENCH_6.json
//
// Repeated runs of the same benchmark (-count=N) are averaged. The output
// maps benchmark names (with the Benchmark prefix and any -GOMAXPROCS
// suffix stripped) to ns/op, B/op and allocs/op. Parsing lives in
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
	flag.Parse()

	snap, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
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
