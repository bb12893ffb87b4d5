// Command bench is perfpred's end-to-end benchmark. It builds its own
// fixture, runs one workload (or all of them) in process, checks every
// answer, and prints the result as one JSON line on standard output:
//
//	bash bench/run.sh --workload point_hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics BENCHMARK.json lists;
// --trace 1 runs the workload untraced and then traced, and reports the
// per-layer metrics. --workload all runs every workload in turn.
//
//	bash bench/run.sh -compare 'a/*.json' 'b/*.json'
//
// compares two sets of --out files metric by metric against the bounds
// in BENCHMARK.json. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// buildDir holds everything a run writes.
const buildDir = ".bench_build"

// setups is how many times a serving run sets up; setup_s is the median.
const setups = 3

// runConfig sizes one run. Tests shrink it.
type runConfig struct {
	seed  int64
	warm  time.Duration // serving warm-up before the measured phase
	phase time.Duration // measured phase
	spans string        // directory traced serving runs write spans to; "" skips
	dse   dseConfig
	// fixture builds a fresh serving fixture; tests substitute one built
	// once.
	fixture func() (*fixture, error)
}

// resultsFile is the -out file: every workload's result of one invocation.
type resultsFile struct {
	Seed    int64              `json:"seed"`
	Trace   int                `json:"trace"`
	Results map[string]*result `json:"results"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", `workload to run, as named in BENCHMARK.json, or "all"`)
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 0, "length of the measured phase in seconds (0: BENCHMARK.json run_seconds)")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the results to this JSON file")
	spans := flag.String("spans", buildDir, "directory traced runs write spans-<workload>.json to")
	compare := flag.String("compare", "", "compare the result files matching this pattern (baseline) with those matching the first argument")
	flag.Parse()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		logf("%v", err)
		return 1
	}
	if *compare != "" {
		return compareFiles(os.Stdout, sp, *compare, flag.Arg(0))
	}
	if err := checkWorkloads(sp); err != nil {
		logf("%v", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		logf("-trace must be 0 or 1")
		return 1
	}
	traced := *traceFlag == 1
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(work)
	rc := runConfig{
		seed:  *seed,
		warm:  5 * time.Second,
		phase: time.Duration(*seconds) * time.Second,
		spans: *spans,
		dse:   fullDSE,
		fixture: func() (*fixture, error) {
			dir, err := os.MkdirTemp(work, "fixture-")
			if err != nil {
				return nil, err
			}
			return buildFixture(ctx, dir)
		},
	}

	file := resultsFile{Seed: *seed, Trace: *traceFlag, Results: map[string]*result{}}
	exit := 0
	for _, name := range names {
		res, err := runWorkload(ctx, sp, name, rc, traced)
		if err != nil {
			logf("%s: %v", name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			logf("%s: %v", name, err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			logf("%s: %d of %d operations failed their checks", name, res.Failed, res.Attempted)
			exit = 1
		}
		file.Results[name] = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			logf("writing %s: %v", *out, err)
			return 1
		}
	}
	return exit
}

// runWorkload runs one workload and checks its metrics against the spec.
func runWorkload(ctx context.Context, sp *spec, name string, rc runConfig, traced bool) (*result, error) {
	var o outcome
	var err error
	if name == "dse" {
		o, err = runDSE(ctx, rc, traced)
	} else if _, ok := servingTraffic[name]; ok {
		o, err = runServing(ctx, name, rc, traced)
	} else {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	return sp.result(o, traced)
}

// checkWorkloads fails unless BENCHMARK.json names exactly the workloads
// this program runs.
func checkWorkloads(sp *spec) error {
	have := []string{"dse"}
	for name := range servingTraffic {
		have = append(have, name)
	}
	var listed []string
	for _, w := range sp.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(have)
	sort.Strings(listed)
	if fmt.Sprint(have) != fmt.Sprint(listed) {
		return fmt.Errorf("BENCHMARK.json lists workloads %v, the program runs %v", listed, have)
	}
	return nil
}
