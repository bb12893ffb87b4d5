package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	var g Gauge
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v, want 0", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Errorf("gauge = %v, want 3.25", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("gauge = %v, want -1", g.Value())
	}
}

// exactQuantile is the nearest-rank order statistic the histogram
// estimates: the sample of rank ceil(pct/100 · n) in ascending order.
func exactQuantile(sorted []float64, pct int) float64 {
	return sorted[(len(sorted)*pct+99)/100-1]
}

// TestHistogramQuantiles checks the histogram's contract over seeded
// samples from several distributions: Count, Sum, Min, Max and Mean are
// exact, and each of P50/P95/P99 is within the documented relative error
// 1/(2·histSub) of the exact order statistic.
func TestHistogramQuantiles(t *testing.T) {
	var empty Histogram
	if s := empty.Snapshot(); s != (HistogramStats{}) {
		t.Errorf("empty histogram snapshot = %+v", s)
	}
	dists := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 0.25 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*2 - 7) }},
		{"constant", func(*rand.Rand) float64 { return 0.0042 }},
		{"batch-mix", func(r *rand.Rand) float64 {
			if r.Intn(4) == 0 {
				return 64
			}
			return float64(1 + r.Intn(64))
		}},
		{"integers", func(r *rand.Rand) float64 { return float64(1 + r.Intn(100)) }},
	}
	bound := 1.0 / (2 * histSub)
	for _, d := range dists {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 1 + r.Intn(5000)
			var h Histogram
			samples := make([]float64, n)
			sum := 0.0
			for i := range samples {
				v := d.draw(r)
				samples[i] = v
				sum += v
				h.Observe(v)
			}
			sort.Float64s(samples)
			s := h.Snapshot()
			if s.Count != int64(n) || s.Sum != sum || s.Mean != sum/float64(n) ||
				s.Min != samples[0] || s.Max != samples[n-1] {
				t.Errorf("%s seed %d: count/sum/min/max/mean = %d/%v/%v/%v/%v, want %d/%v/%v/%v/%v",
					d.name, seed, s.Count, s.Sum, s.Min, s.Max, s.Mean,
					n, sum, samples[0], samples[n-1], sum/float64(n))
			}
			for _, q := range []struct {
				pct int
				got float64
			}{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
				want := exactQuantile(samples, q.pct)
				if math.Abs(q.got-want) > want*bound {
					t.Errorf("%s seed %d n %d: p%d = %v, exact %v: relative error %.4f > %.4f",
						d.name, seed, n, q.pct, q.got, want, math.Abs(q.got-want)/want, bound)
				}
			}
		}
	}
}

// TestHistogramBuckets pins the layout's edges: everything below 2^-30
// (zero, negatives, NaN) underflows, 2^34 and up overflows, and a
// regular bucket holds [lo, lo + 2^e/16) with its midpoint inside.
func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0}, {-1, 0}, {math.NaN(), 0}, {math.Inf(-1), 0},
		{math.Nextafter(histLow, 0), 0},
		{histLow, 1}, {1, 1 + 30*histSub}, {1.0625, 2 + 30*histSub},
		{math.Nextafter(histHigh, 0), histBuckets - 2},
		{histHigh, histBuckets - 1}, {math.Inf(1), histBuckets - 1},
	} {
		if got := histBucket(tc.v); got != tc.want {
			t.Errorf("histBucket(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	for i := 1; i < histBuckets-1; i++ {
		mid := histMidpoint(i)
		if histBucket(mid) != i {
			t.Fatalf("midpoint %v of bucket %d lands in bucket %d", mid, i, histBucket(mid))
		}
	}
}

// TestHistogramNegativeSamples keeps Min, Max and the clamp exact for
// values the layout sends to the underflow bucket.
func TestHistogramNegativeSamples(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-3, -1, 0, 2} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Min != -3 || s.Max != 2 || s.Sum != -2 || s.P50 != -3 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(v); v *= 1.01 }); allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}

// TestHistogramConstantMemory observes 10M samples and requires the live
// heap not to grow with them.
func TestHistogramConstantMemory(t *testing.T) {
	h := new(Histogram)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < 10_000_000; i++ {
		h.Observe(float64(i%4096) * 1e-6)
	}
	grown := heap() - before
	if s := h.Snapshot(); s.Count != 10_000_000 {
		t.Fatalf("count = %d", s.Count)
	}
	if grown > 16<<10 {
		t.Errorf("heap grew %d bytes over 10M observations, want < 16 KiB", grown)
	}
}

// TestHistogramConcurrent observes from several goroutines: the snapshot
// count equals both the number of observations and the sum of the bucket
// counters, and Min, Max and the (integer-valued, so order-free) Sum are
// exact.
func TestHistogramConcurrent(t *testing.T) {
	const workers, per = 8, 5000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(1 + w*per + i))
			}
		}(w)
	}
	wg.Wait()
	var buckets int64
	for i := range h.buckets {
		buckets += int64(h.buckets[i].Load())
	}
	const n = workers * per
	s := h.Snapshot()
	if s.Count != n || buckets != n {
		t.Errorf("count = %d, bucket total = %d, want %d", s.Count, buckets, n)
	}
	if s.Min != 1 || s.Max != n || s.Sum != n*(n+1)/2 {
		t.Errorf("min/max/sum = %v/%v/%v, want 1/%d/%d", s.Min, s.Max, s.Sum, n, n*(n+1)/2)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles out of order: %+v", s)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i&1023) * 1e-5)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := 1e-5
			for pb.Next() {
				h.Observe(v)
				v += 1e-6
			}
		})
	})
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7)
	s := h.Snapshot()
	if s.P50 != 7 || s.P95 != 7 || s.P99 != 7 || s.Mean != 7 {
		t.Errorf("single-sample snapshot = %+v", s)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(2)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 || snap.Gauges["g"] != 1.5 || snap.Histograms["h"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	// The snapshot must survive JSON.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded MetricsSnapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not decode: %v", err)
	}
	if decoded.Counters["a"] != 3 {
		t.Errorf("decoded counter = %d, want 3", decoded.Counters["a"])
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
