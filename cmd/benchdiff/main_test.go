package main

import (
	"strings"
	"testing"

	"perfpred/internal/benchfmt"
)

func snapshot(t *testing.T, benchText string) *benchfmt.Snapshot {
	t.Helper()
	s, err := benchfmt.Parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func baseline() *benchfmt.Snapshot {
	return &benchfmt.Snapshot{Benchmarks: map[string]benchfmt.Result{
		"CachedPredict":   {Runs: 2, NsPerOp: 165, BytesPerOp: 0, AllocsPerOp: 0},
		"UncachedPredict": {Runs: 2, NsPerOp: 2060, BytesPerOp: 374, AllocsPerOp: 4},
	}}
}

// TestCompareWithinTolerance pins the pass case: slower-but-tolerable
// timings and unchanged allocation counts clear the gate.
func TestCompareWithinTolerance(t *testing.T) {
	fresh := snapshot(t, `
BenchmarkCachedPredict-8     100	 320 ns/op	   0 B/op	 0 allocs/op
BenchmarkUncachedPredict-8   100	4100 ns/op	 374 B/op	 4 allocs/op
`)
	lines, failures := compare(baseline(), fresh)
	if len(failures) != 0 {
		t.Fatalf("in-tolerance run failed the gate: %v", failures)
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 report lines, got %v", lines)
	}
}

// TestCompareCatchesSyntheticRegression is the gate proving itself: a
// synthetically regressed run — ns/op blown past tolerance AND the
// zero-alloc pin broken — must fail, with one failure per rule.
func TestCompareCatchesSyntheticRegression(t *testing.T) {
	fresh := snapshot(t, `
BenchmarkCachedPredict-8     100	 900 ns/op	  48 B/op	 2 allocs/op
BenchmarkUncachedPredict-8   100	2100 ns/op	 374 B/op	 4 allocs/op
`)
	_, failures := compare(baseline(), fresh)
	if len(failures) != 2 {
		t.Fatalf("want 2 failures (ns/op tolerance + zero-alloc pin), got %v", failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "tolerance") || !strings.Contains(joined, "pins 0 allocs/op") {
		t.Errorf("failure text does not name both rules:\n%s", joined)
	}
}

// TestCompareAllocGrowthNoTolerance pins that allocation-count growth
// fails even when timing is fine and the baseline is not zero-alloc.
func TestCompareAllocGrowthNoTolerance(t *testing.T) {
	fresh := snapshot(t, `
BenchmarkCachedPredict-8     100	 170 ns/op	   0 B/op	 0 allocs/op
BenchmarkUncachedPredict-8   100	2100 ns/op	 400 B/op	 5 allocs/op
`)
	_, failures := compare(baseline(), fresh)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op grew 4 -> 5") {
		t.Fatalf("want exactly the alloc-growth failure, got %v", failures)
	}
}

// TestCompareMissingBenchmark pins that deleting a benchmark cannot
// silently retire its own gate.
func TestCompareMissingBenchmark(t *testing.T) {
	fresh := snapshot(t, `
BenchmarkCachedPredict-8     100	 170 ns/op	   0 B/op	 0 allocs/op
`)
	_, failures := compare(baseline(), fresh)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing from the fresh run") {
		t.Fatalf("want exactly the missing-benchmark failure, got %v", failures)
	}
}

// TestCompareIgnoresExtraFresh pins that new benchmarks without a
// baseline entry are not failures — they join the gate when the next
// snapshot is committed.
func TestCompareIgnoresExtraFresh(t *testing.T) {
	fresh := snapshot(t, `
BenchmarkCachedPredict-8     100	 170 ns/op	   0 B/op	 0 allocs/op
BenchmarkUncachedPredict-8   100	2100 ns/op	 374 B/op	 4 allocs/op
BenchmarkBrandNew-8          100	9999 ns/op	 999 B/op	99 allocs/op
`)
	lines, failures := compare(baseline(), fresh)
	if len(failures) != 0 {
		t.Fatalf("extra fresh benchmark failed the gate: %v", failures)
	}
	if len(lines) != 2 {
		t.Fatalf("extra fresh benchmark leaked into the report: %v", lines)
	}
}

// TestCompareAgainstCommittedBaseline loads the real committed
// BENCH_8.json so schema drift between benchjson and benchdiff cannot
// land silently.
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	base, err := benchfmt.Load("../../BENCH_8.json")
	if err != nil {
		t.Fatalf("loading committed BENCH_8.json: %v", err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("committed BENCH_8.json has no benchmarks")
	}
	if r, ok := base.Benchmarks["CachedPredict"]; !ok || r.AllocsPerOp != 0 {
		t.Fatalf("committed baseline no longer pins CachedPredict at 0 allocs/op: %+v", base.Benchmarks)
	}
}
