// Package benchfmt parses `go test -bench` text output into the stable
// snapshot schema the repo commits as BENCH_*.json. It is shared by
// cmd/benchjson (which writes snapshots) and cmd/benchdiff (which gates
// fresh measurements against a committed snapshot).
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the whole JSON document.
type Snapshot struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Pkg is the first benchmarked package; Pkgs lists every package when
	// one run spans several (e.g. the neural and tree kernels together).
	Pkg        string            `json:"pkg,omitempty"`
	Pkgs       []string          `json:"pkgs,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Load reads a snapshot JSON file.
func Load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// accum sums repeated runs of one benchmark before averaging.
type accum struct {
	runs   int
	ns     float64
	bytes  int64
	allocs int64
}

// Parse reads `go test -bench` output and aggregates benchmark lines.
// Repeated runs of the same benchmark (-count=N) are averaged; the
// Benchmark prefix and any -GOMAXPROCS suffix are stripped from names.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: map[string]Result{}}
	acc := map[string]*accum{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if snap.Pkg == "" {
				snap.Pkg = pkg
			}
			snap.Pkgs = append(snap.Pkgs, pkg)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		a := acc[name]
		if a == nil {
			a = &accum{}
			acc[name] = a
		}
		a.runs++
		a.ns += ns
		// -benchmem columns are optional.
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				a.bytes = v
			case "allocs/op":
				a.allocs = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(acc))
	for name := range acc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := acc[name]
		snap.Benchmarks[name] = Result{
			Runs:        a.runs,
			NsPerOp:     round3(a.ns / float64(a.runs)),
			BytesPerOp:  a.bytes,
			AllocsPerOp: a.allocs,
		}
	}
	return snap, nil
}

// round3 rounds to three decimal places, matching the committed
// snapshots.
func round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}
