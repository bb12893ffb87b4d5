package bpred

import (
	"math/rand"
	"testing"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("bad name: want error")
	}
}

func TestNumericLevelMonotone(t *testing.T) {
	if !(Bimodal.NumericLevel() < TwoLevel.NumericLevel() &&
		TwoLevel.NumericLevel() < Combination.NumericLevel() &&
		Combination.NumericLevel() < Perfect.NumericLevel()) {
		t.Fatal("numeric levels not monotone in predictor strength")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Bimodal, 0); err == nil {
		t.Fatal("zero entries: want error")
	}
	if _, err := New(Bimodal, 1000); err == nil {
		t.Fatal("non-power-of-two: want error")
	}
	if _, err := New(Kind(99), 1024); err == nil {
		t.Fatal("unknown kind: want error")
	}
	p, err := New(Perfect, 0) // table size irrelevant for the oracle
	if _, ok := p.(perfect); err != nil || !ok {
		t.Fatalf("perfect: %v %v", p, err)
	}
}

func TestPerfectNeverMispredicts(t *testing.T) {
	p, _ := New(Perfect, 0)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p.Observe(uint64(r.Intn(64))*4, r.Intn(2) == 0) {
			t.Fatal("perfect predictor mispredicted")
		}
	}
}

func TestBimodalLearnsBiasedBranch(t *testing.T) {
	p, _ := New(Bimodal, 1024)
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.Observe(0x4000, true) {
			miss++
		}
	}
	// Always-taken branch: only the warm-up predictions miss.
	if miss > 3 {
		t.Fatalf("bimodal missed %d times on an always-taken branch", miss)
	}
}

func TestBimodalAlternatingBranchIsHard(t *testing.T) {
	p, _ := New(Bimodal, 1024)
	miss := 0
	n := 1000
	for i := 0; i < n; i++ {
		if p.Observe(0x4000, i%2 == 0) {
			miss++
		}
	}
	// An alternating branch defeats a bimodal predictor (≥ ~50% misses).
	if float64(miss)/float64(n) < 0.4 {
		t.Fatalf("bimodal should struggle on alternation, missed only %d/%d", miss, n)
	}
}

func TestTwoLevelLearnsPattern(t *testing.T) {
	p, _ := New(TwoLevel, 4096)
	miss := 0
	n := 2000
	for i := 0; i < n; i++ {
		if p.Observe(0x4000, i%2 == 0) {
			miss++
		}
	}
	// History-based prediction captures the period-2 pattern after warm-up.
	if float64(miss)/float64(n) > 0.1 {
		t.Fatalf("2-level missed %d/%d on a periodic branch", miss, n)
	}
}

func TestTwoLevelLearnsLongerPattern(t *testing.T) {
	p, _ := New(TwoLevel, 4096)
	pattern := []bool{true, true, false, true, false, false}
	miss := 0
	n := 3000
	for i := 0; i < n; i++ {
		if p.Observe(0x4000, pattern[i%len(pattern)]) {
			miss++
		}
	}
	if float64(miss)/float64(n) > 0.15 {
		t.Fatalf("2-level missed %d/%d on a period-6 pattern", miss, n)
	}
}

func TestCombinationAtLeastAsGoodAsWorstComponent(t *testing.T) {
	// Mixed workload: some biased branches (bimodal-friendly), some
	// periodic branches (2-level-friendly). The tournament should do well
	// on both.
	gen := func() ([]uint64, []bool) {
		r := rand.New(rand.NewSource(7))
		var pcs []uint64
		var outs []bool
		for i := 0; i < 6000; i++ {
			if r.Intn(2) == 0 {
				pcs = append(pcs, 0x1000)
				outs = append(outs, true) // strongly biased
			} else {
				pcs = append(pcs, 0x2000)
				outs = append(outs, i%2 == 0) // periodic
			}
		}
		return pcs, outs
	}
	rate := func(k Kind) float64 {
		p, err := New(k, 4096)
		if err != nil {
			t.Fatal(err)
		}
		pcs, outs := gen()
		r, err := MispredictRate(p, pcs, outs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	comb := rate(Combination)
	bim := rate(Bimodal)
	two := rate(TwoLevel)
	if comb > bim+0.02 || comb > two+0.02 {
		t.Fatalf("combination %.3f worse than components (bimodal %.3f, 2level %.3f)", comb, bim, two)
	}
	if comb > 0.15 {
		t.Fatalf("combination rate %.3f too high on a learnable mix", comb)
	}
}

func TestPredictorOrderingOnRealisticStream(t *testing.T) {
	// A stream of many branches with mixed biases: perfect < combination
	// ≤ min(bimodal, 2level) + slack, and everything ≤ 0.5 + slack.
	gen := func() ([]uint64, []bool) {
		r := rand.New(rand.NewSource(9))
		nBranches := 64
		bias := make([]float64, nBranches)
		period := make([]int, nBranches)
		for b := range bias {
			bias[b] = r.Float64()
			if r.Intn(4) == 0 {
				period[b] = 2 + r.Intn(4)
			}
		}
		var pcs []uint64
		var outs []bool
		for i := 0; i < 20000; i++ {
			b := r.Intn(nBranches)
			pcs = append(pcs, uint64(b)*64)
			if period[b] > 0 {
				outs = append(outs, i%period[b] == 0)
			} else {
				outs = append(outs, r.Float64() < bias[b])
			}
		}
		return pcs, outs
	}
	rates := map[Kind]float64{}
	for _, k := range Kinds() {
		p, err := New(k, 4096)
		if err != nil {
			t.Fatal(err)
		}
		pcs, outs := gen()
		rate, err := MispredictRate(p, pcs, outs)
		if err != nil {
			t.Fatal(err)
		}
		rates[k] = rate
	}
	if rates[Perfect] != 0 {
		t.Fatalf("perfect rate = %v", rates[Perfect])
	}
	for k, r := range rates {
		if k != Perfect && (r <= 0 || r >= 0.6) {
			t.Errorf("%v rate %.3f implausible", k, r)
		}
	}
	if rates[Combination] > rates[Bimodal]+0.02 {
		t.Errorf("combination (%.3f) should not lose to bimodal (%.3f)", rates[Combination], rates[Bimodal])
	}
}

func TestMispredictRateErrors(t *testing.T) {
	p, _ := New(Bimodal, 1024)
	if _, err := MispredictRate(p, []uint64{1}, nil); err == nil {
		t.Fatal("mismatch: want error")
	}
	if _, err := MispredictRate(p, nil, nil); err == nil {
		t.Fatal("empty: want error")
	}
}

func TestDistinctPCsUseDistinctCounters(t *testing.T) {
	p, _ := New(Bimodal, 1024)
	// Train pc A taken; pc B (different index) should stay at its initial
	// weakly-not-taken state.
	for i := 0; i < 100; i++ {
		p.Observe(0x1000, true)
	}
	// First observation of B (a non-aliasing index) with outcome false
	// should NOT mispredict: initial counters predict not-taken.
	if p.Observe(0x1004, false) {
		t.Fatal("training pc A leaked into pc B")
	}
}
