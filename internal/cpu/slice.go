package cpu

import (
	"errors"
	"fmt"
	"math"

	"perfpred/internal/bpred"
	"perfpred/internal/mem"
	"perfpred/internal/trace"
)

// SimulateSlice simulates the instruction window [start, start+n) of tr
// under cfg, after warming the caches, TLBs and branch predictor on up to
// warmup preceding instructions (statistics from the warmup region are
// discarded). This is the execution mode SimPoint-style sampling needs:
// simulation points are short, so cold-start state would otherwise
// dominate their measured CPI.
func SimulateSlice(cfg Config, tr *trace.Trace, start, n, warmup int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("cpu: empty trace")
	}
	if start < 0 || n <= 0 || start+n > tr.Len() {
		return nil, fmt.Errorf("cpu: window [%d, %d) out of range [0, %d)", start, start+n, tr.Len())
	}
	if warmup < 0 {
		return nil, errors.New("cpu: negative warmup")
	}

	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	pred, err := bpred.New(cfg.BPred, cfg.BPredEntries)
	if err != nil {
		return nil, err
	}

	wStart := start - warmup
	if wStart < 0 {
		wStart = 0
	}
	// Warmup pass: populate state, discard measurements.
	for i := wStart; i < start; i++ {
		ins := &tr.Instrs[i]
		h.AccessInst(ins.PC)
		switch ins.Class {
		case trace.Load, trace.Store:
			h.AccessData(ins.Addr)
		case trace.Branch:
			pred.Observe(ins.PC, ins.Taken)
		}
	}
	warm := h.Stats()

	// Measured window: accumulate the same metrics the Evaluator collects.
	l1iHit := cfg.Mem.L1I.LatencyCycles
	l1dHit := cfg.Mem.L1D.LatencyCycles
	mm := &memMetrics{}
	bm := &branchMetrics{}
	tm := traceMetrics{n: n}
	classCounts := make(map[trace.Class]int)
	depSum, depCount := 0.0, 0
	for i := start; i < start+n; i++ {
		ins := &tr.Instrs[i]
		classCounts[ins.Class]++
		if ins.Dep > 0 {
			depSum += float64(ins.Dep)
			depCount++
		}
		tlb, cache, _ := h.AccessInstParts(ins.PC)
		mm.tlbCycles += float64(tlb)
		mm.instCacheExtra += float64(cache - l1iHit)
		switch ins.Class {
		case trace.Load:
			tlb, cache, toMem := h.AccessDataParts(ins.Addr)
			mm.tlbCycles += float64(tlb)
			if toMem {
				mm.loadMemExtra += float64(cache - l1dHit)
			} else {
				mm.loadChipExtra += float64(cache - l1dHit)
			}
		case trace.Store:
			tlb, cache, toMem := h.AccessDataParts(ins.Addr)
			mm.tlbCycles += float64(tlb)
			if toMem {
				mm.storeMemExtra += float64(cache - l1dHit)
			} else {
				mm.storeChipExtra += float64(cache - l1dHit)
			}
		case trace.Branch:
			bm.branches++
			if pred.Observe(ins.PC, ins.Taken) {
				bm.mispredicts++
			}
		}
	}
	// Window statistics exclude the warmup contribution.
	total := h.Stats()
	mm.stats = subtractStats(total, warm)

	tm.mix = make(map[trace.Class]float64, len(classCounts))
	for c, cnt := range classCounts {
		tm.mix[c] = float64(cnt) / float64(n)
	}
	if depCount > 0 {
		tm.depMean = depSum / float64(depCount)
	} else {
		tm.depMean = math.Inf(1)
	}
	tm.branches = bm.branches

	res := combine(cfg, &tm, tr.Profile(), mm, bm)
	return &res, nil
}

// subtractStats returns after − before, counter-wise.
func subtractStats(after, before mem.AccessStats) mem.AccessStats {
	return mem.AccessStats{
		L1IAccesses: after.L1IAccesses - before.L1IAccesses,
		L1IMisses:   after.L1IMisses - before.L1IMisses,
		L1DAccesses: after.L1DAccesses - before.L1DAccesses,
		L1DMisses:   after.L1DMisses - before.L1DMisses,
		L2Accesses:  after.L2Accesses - before.L2Accesses,
		L2Misses:    after.L2Misses - before.L2Misses,
		L3Accesses:  after.L3Accesses - before.L3Accesses,
		L3Misses:    after.L3Misses - before.L3Misses,
		ITLBMisses:  after.ITLBMisses - before.ITLBMisses,
		DTLBMisses:  after.DTLBMisses - before.DTLBMisses,
		MemAccesses: after.MemAccesses - before.MemAccesses,
	}
}
