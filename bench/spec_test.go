package main

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecNamesTheProgramsWorkloads(t *testing.T) {
	if err := checkWorkloads(testSpec(t)); err != nil {
		t.Fatal(err)
	}
}

func TestSpecListsEveryLayerMetric(t *testing.T) {
	var have, listed []string
	have = append(append(have, dseLayerMetrics...), servingLayerMetrics...)
	// Measured by every workload's traced run.
	have = append(have, "client.latency_ms.p50", "client.latency_ms.p90", "process.cpu_us_per_row", "trace.overhead")
	for _, m := range testSpec(t).PerLayer {
		listed = append(listed, m.Name)
	}
	sort.Strings(have)
	sort.Strings(listed)
	if strings.Join(have, " ") != strings.Join(listed, " ") {
		t.Fatalf("BENCHMARK.json per_layer:\n%v\nthe program's layer metrics:\n%v", listed, have)
	}
}

func TestResultRejectsMetricSetMismatch(t *testing.T) {
	sp := testSpec(t)
	full := map[string]float64{}
	for _, m := range sp.EndToEnd {
		full[m.Name] = 1
	}
	if _, err := sp.result(outcome{attempted: 1, values: full}, false); err != nil {
		t.Fatalf("complete metric set rejected: %v", err)
	}
	clone := func(edit func(map[string]float64)) map[string]float64 {
		c := map[string]float64{}
		for k, v := range full {
			c[k] = v
		}
		edit(c)
		return c
	}
	for name, values := range map[string]map[string]float64{
		"missing":    clone(func(m map[string]float64) { delete(m, "allocs_per_row") }),
		"unlisted":   clone(func(m map[string]float64) { m["p42_ms"] = 1 }),
		"NaN":        clone(func(m map[string]float64) { m["allocs_per_row"] = math.NaN() }),
		"infinite":   clone(func(m map[string]float64) { m["heap_mb"] = math.Inf(1) }),
		"per-layer":  clone(func(m map[string]float64) { m["gateway.affinity"] = 1 }),
		"wrong kind": {"gateway.affinity": 1},
	} {
		if _, err := sp.result(outcome{attempted: 1, values: values}, false); err == nil {
			t.Errorf("%s: result accepted %v", name, values)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, scale(steady, 1.02), "unchanged"},
		{"slower", lower, steady, scale(steady, 1.2), "worse"},
		{"faster", lower, steady, scale(steady, 0.8), "improved"},
		{"higher is better", higher, steady, scale(steady, 0.8), "worse"},
		{"noisy", lower, steady, []float64{60, 140, 100, 70, 130, 100}, "unresolved"},
		{"noisy but better in every run", lower, steady, []float64{50, 90, 70, 55, 85, 60}, "improved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
