package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the single source of the workload names and of
// every metric's name, unit, direction and regression bound. The program
// takes units from it and refuses to print a result whose metric set
// differs from the list it names.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric entry. Bound is the share of the baseline
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured, before units are attached.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
}

// result attaches units to o's values. It fails when o's metric set is
// not exactly the one the spec lists for this kind of run (per-layer
// when traced, end-to-end otherwise), or when a value is not finite.
func (s *spec) result(o outcome, traced bool) (*result, error) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		v, ok := o.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(o.values) != len(want) {
		var extra []string
		for name := range o.values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v were measured but are not listed in BENCHMARK.json", extra)
	}
	return r, nil
}
