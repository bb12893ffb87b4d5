// Package cpu implements the cycle-approximate out-of-order processor
// model standing in for SimpleScalar's sim-outorder. A Config carries the
// Table 1 microarchitecture parameters; Simulate runs a synthetic trace
// through the memory hierarchy and branch predictors and combines the
// measured event counts with an interval-style pipeline model into a cycle
// count.
//
// The model is decoupled the way trace-driven simulators are: cache/TLB
// behaviour depends only on the memory configuration and branch behaviour
// only on the predictor, so an Evaluator memoizes those expensive substrate
// simulations and full design-space sweeps reuse them across the thousands
// of core configurations that share them. The memory pass is itself
// staged level by level: each L1 and each TLB runs over the trace once,
// each L2 over the recorded, merged L1-miss stream, and each L3 over the
// L2's recorded misses (trace reduction, as in Mattson et al. 1970).
package cpu

import (
	"errors"
	"fmt"

	"perfpred/internal/bpred"
	"perfpred/internal/mem"
)

// FUConfig gives the functional-unit counts of Table 1's last row
// ("4/2/2/4/2" means 4 integer ALUs, 2 integer multipliers, 2 memory
// ports, 4 FP ALUs, 2 FP multipliers).
type FUConfig struct {
	IntALU  int
	IntMult int
	MemPort int
	FPALU   int
	FPMult  int
}

// String renders the Table 1 notation.
func (f FUConfig) String() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", f.IntALU, f.IntMult, f.MemPort, f.FPALU, f.FPMult)
}

// Validate checks all unit counts are positive.
func (f FUConfig) Validate() error {
	if f.IntALU <= 0 || f.IntMult <= 0 || f.MemPort <= 0 || f.FPALU <= 0 || f.FPMult <= 0 {
		return fmt.Errorf("cpu: functional unit counts %s must all be positive", f)
	}
	return nil
}

// Config is one point of the microprocessor design space (Table 1).
type Config struct {
	// Mem is the cache/TLB hierarchy.
	Mem mem.HierarchyConfig
	// BPred selects the branch predictor; BPredEntries sizes its tables.
	BPred        bpred.Kind
	BPredEntries int
	// Width is the decode/issue/commit width.
	Width int
	// IssueWrong enables wrong-path issue (speculative instructions
	// execute and consume resources until the misprediction resolves).
	IssueWrong bool
	// RUU is the register update unit (instruction window) size; LSQ the
	// load/store queue size.
	RUU, LSQ int
	// FU gives the functional unit counts.
	FU FUConfig
	// FrontendDepth is the number of front-end pipeline stages drained on
	// a branch misprediction.
	FrontendDepth int
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	if c.BPred != bpred.Perfect {
		if c.BPredEntries <= 0 || c.BPredEntries&(c.BPredEntries-1) != 0 {
			return errors.New("cpu: predictor entries must be a positive power of two")
		}
	}
	if c.Width <= 0 {
		return errors.New("cpu: width must be positive")
	}
	if c.RUU <= 0 || c.LSQ <= 0 {
		return errors.New("cpu: RUU and LSQ sizes must be positive")
	}
	if c.LSQ > c.RUU {
		return errors.New("cpu: LSQ cannot exceed the RUU size")
	}
	if err := c.FU.Validate(); err != nil {
		return err
	}
	if c.FrontendDepth <= 0 {
		return errors.New("cpu: frontend depth must be positive")
	}
	return nil
}

// DefaultLatencies fills in the fixed per-level latencies the paper's
// design space does not vary: 1-cycle L1s, 12-cycle L2, 40-cycle L3,
// 200-cycle memory, 30-cycle TLB walks, 8-deep front end.
func DefaultLatencies(c *Config) {
	c.Mem.L1I.LatencyCycles = 1
	c.Mem.L1D.LatencyCycles = 1
	c.Mem.L2.LatencyCycles = 12
	if c.Mem.L3.Enabled() {
		c.Mem.L3.LatencyCycles = 40
	}
	if c.Mem.MemLatencyCyc == 0 {
		c.Mem.MemLatencyCyc = 200
	}
	if c.Mem.ITLB.MissPenaltyCycles == 0 {
		c.Mem.ITLB.MissPenaltyCycles = 30
	}
	if c.Mem.DTLB.MissPenaltyCycles == 0 {
		c.Mem.DTLB.MissPenaltyCycles = 30
	}
	if c.Mem.ITLB.Assoc == 0 {
		c.Mem.ITLB.Assoc = 4
	}
	if c.Mem.DTLB.Assoc == 0 {
		c.Mem.DTLB.Assoc = 4
	}
	if c.BPredEntries == 0 {
		c.BPredEntries = 2048
	}
	if c.FrontendDepth == 0 {
		c.FrontendDepth = 8
	}
}
