// Command perfpredload is the chaos/soak driver for the serving stack:
// it trains a small fixture zoo, boots an in-process serving tier with
// the fault-injection layer armed, replays a deterministic seed-derived
// request schedule against it, and verifies the serving invariants
// (one terminal response per request, bit-exact 200s, exact client
// error codes, monotone per-replica generations, consistent counters).
//
// The tier is -replicas daemons: one bare daemon by default, or with
// -replicas N (N >= 2) N daemons behind a cache-affine gateway, which
// adds the rendezvous affinity and gateway report checks. -replica-kill
// additionally crashes one replica mid-schedule and restarts it,
// asserting the gateway ejects, retries around, and readmits it without
// losing a request.
//
// Usage:
//
//	perfpredload -seed 7 -duration 30s -report chaos-report.json
//	perfpredload -seed 7 -duration 5m -replicas 3 -replica-kill
//
// The process exits 1 if any invariant is violated; the printed seed
// reproduces the run exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"perfpred/internal/loadtest"
)

func main() {
	var (
		seed     = flag.Int64("seed", 7, "seed deriving the schedule and fixture models")
		duration = flag.Duration("duration", 30*time.Second, "schedule horizon")
		faults   = flag.Bool("faults", true, "arm the chaos fault plans")
		replicas = flag.Int("replicas", 1, "serving daemons; 0 or 1 is one bare daemon, >= 2 puts a cache-affine gateway in front")
		kill     = flag.Bool("replica-kill", false, "crash one replica mid-schedule and restart it (requires -replicas >= 2)")
		report   = flag.String("report", "", "write the invariant report JSON to this path")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	cfg := loadtest.Config{
		Seed:        *seed,
		Duration:    *duration,
		Faults:      *faults,
		Replicas:    *replicas,
		ReplicaKill: *kill,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfpredload: "+format+"\n", args...)
		}
	}

	rep, err := loadtest.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfpredload: seed %d: %v\n", *seed, err)
		os.Exit(1)
	}
	if *report != "" {
		if werr := rep.WriteFile(*report); werr != nil {
			fmt.Fprintf(os.Stderr, "perfpredload: writing report: %v\n", werr)
			os.Exit(1)
		}
	}

	fmt.Printf("seed %d  schedule %#x  events %d  statuses %v  timeouts %d  reloads %d/%d ok  bit-compared %d  epilogue %+v\n",
		rep.Seed, rep.ScheduleHash, rep.Events, rep.StatusCounts, rep.ClientTimeouts,
		rep.Reloads.OK, rep.Reloads.Attempted, rep.BitCompared, rep.Epilogue)
	for _, sr := range rep.Replicas {
		cs := sr.Cache
		fmt.Printf("  replica %s  generation %d  requests %d  predictions %d  shed %d  faults %d  cache lookups %d  hits %d  evictions %d  invalidations %d\n",
			sr.Addr, sr.Generation, sr.Requests, sr.Predictions, sr.Shed, sr.FaultsInjected,
			cs.Lookups, cs.Hits, cs.Evictions, cs.Invalidations)
	}
	if gw := rep.Gateway; gw != nil {
		fmt.Printf("  gateway  kills %d  restarts %d  retries %d  ejects %d  readmits %d  faults %d  affinity %d keys spread<=%d\n",
			rep.ReplicaKills, rep.ReplicaRestarts, gw.Retries,
			gw.Ejects, gw.Readmits, gw.FaultsInjected, rep.AffinityKeys, rep.AffinityMaxSpread)
	}
	if rep.HeapFirstPeakMiB > 0 {
		fmt.Printf("  heap  %d samples  peak HeapInuse first quarter %.1f MiB  last quarter %.1f MiB\n",
			rep.HeapSamples, rep.HeapFirstPeakMiB, rep.HeapLastPeakMiB)
	}
	if !rep.OK() {
		fmt.Printf("FAIL: %d invariant violations (reproduce with -seed %d):\n", len(rep.Violations), rep.Seed)
		for _, v := range rep.Violations {
			fmt.Println("  - " + v)
		}
		os.Exit(1)
	}
	fmt.Println("PASS: all serving invariants held")
}
