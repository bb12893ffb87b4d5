package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// runs maps workload → metric → one value per result file.
type runs map[string]map[string][]float64

// loadRuns reads every -out file matching pattern.
func loadRuns(pattern string) (runs, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	rs := runs{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		for w, res := range f.Results {
			if rs[w] == nil {
				rs[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				rs[w][name] = append(rs[w][name], m.Value)
			}
		}
	}
	return rs, nil
}

// verdict judges candidate runs b against baseline runs a for one
// metric. worse is the change of b's median from a's as a share of a's,
// signed so that positive is worse. With the runs' own spread wider than
// the bound the pair is unresolved, unless every b run beats every a run.
func verdict(m metricSpec, a, b []float64) (v string, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Bound == 0 {
		return "-", worse // per-layer metrics have no bound
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound:
		if beatsAll(m, a, b) {
			return "improved", worse
		}
		return "unresolved", worse
	case worse > m.Bound:
		return "worse", worse
	case worse < -m.Bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// beatsAll reports whether every value in b is better than every value
// in a.
func beatsAll(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher") != (y > x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, metric) measured on both
// sides and returns 1 if any bounded metric got worse.
func compareFiles(w io.Writer, sp *spec, basePattern, candPattern string) int {
	if candPattern == "" {
		logf("-compare needs the candidate pattern as its argument")
		return 1
	}
	a, err := loadRuns(basePattern)
	if err != nil {
		logf("%v", err)
		return 1
	}
	b, err := loadRuns(candPattern)
	if err != nil {
		logf("%v", err)
		return 1
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tcand median\tworse by\tbase spread\tcand spread\tbound\tverdict")
	exit := 0
	for _, wl := range sp.Workloads {
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, worse := verdict(m, av, bv)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, median(av), median(bv), 100*worse,
				100*spread(av), 100*spread(bv), 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		logf("%v", err)
		return 1
	}
	return exit
}
