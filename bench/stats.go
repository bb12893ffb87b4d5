package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs (which it does not modify).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match those computed with that function. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median; 0 when there are fewer than two values or the median is 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// usage is the process's cumulative resource use at one instant.
type usage struct {
	cpu        time.Duration // user plus system CPU time
	mallocs    uint64        // heap objects allocated
	allocBytes uint64        // heap bytes allocated
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}, nil
}

// perRow returns the use between u0 and u1 per row: CPU microseconds,
// allocations, and allocated KiB.
func perRow(u0, u1 usage, rows int) (cpuUS, allocs, allocKiB float64) {
	n := float64(rows)
	return ratio(float64(u1.cpu-u0.cpu)/1e3, n),
		ratio(float64(u1.mallocs-u0.mallocs), n),
		ratio(float64(u1.allocBytes-u0.allocBytes)/1024, n)
}

// heapMiB returns the live heap after full collections, in MiB. It
// reads HeapAlloc, the bytes of live objects, rather than HeapInuse,
// whose span granularity made it vary by about 6% between seeds. The
// second collection frees what the first left in sync.Pool victim caches.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio returns num/den, or 0 when den is 0: a layer the workload never
// reached reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
