// Package bpred implements the branch predictors of the microprocessor
// study (paper Table 1): Perfect, Bimodal, 2-level adaptive and Combination
// (tournament). They mirror the SimpleScalar sim-outorder predictor
// configurations the paper's design space varies.
package bpred

import (
	"errors"
	"fmt"
)

// Kind selects a predictor style.
type Kind int

const (
	// Perfect always predicts correctly (an oracle; the design-space
	// upper bound).
	Perfect Kind = iota
	// Bimodal is a table of 2-bit saturating counters indexed by PC.
	Bimodal
	// TwoLevel is a gshare-style global-history predictor: the global
	// branch history register is XORed with the PC to index a pattern
	// history table of 2-bit counters.
	TwoLevel
	// Combination is a tournament predictor: a bimodal and a 2-level
	// component with a 2-bit chooser table that learns which component to
	// trust per branch.
	Combination
)

// String returns the configuration name used in reports and datasets.
func (k Kind) String() string {
	switch k {
	case Perfect:
		return "perfect"
	case Bimodal:
		return "bimodal"
	case TwoLevel:
		return "2level"
	case Combination:
		return "combination"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists all predictor kinds in Table 1 order.
func Kinds() []Kind { return []Kind{Perfect, Bimodal, TwoLevel, Combination} }

// ParseKind converts a configuration name back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("bpred: unknown predictor kind %q", s)
}

// NumericLevel returns a monotone "predictor strength" scale used when a
// linear model needs a numeric coercion of the categorical predictor field
// (weakest to strongest: bimodal < 2level < combination < perfect).
func (k Kind) NumericLevel() float64 {
	switch k {
	case Bimodal:
		return 1
	case TwoLevel:
		return 2
	case Combination:
		return 3
	case Perfect:
		return 4
	default:
		return 0
	}
}

// Predictor consumes a stream of (pc, outcome) pairs and reports
// mispredictions.
type Predictor interface {
	// Observe predicts the branch at pc, updates internal state with the
	// actual outcome, and reports whether the prediction was wrong.
	Observe(pc uint64, taken bool) (mispredicted bool)
}

// New creates a predictor of the given kind with the given table size
// (entries; must be a power of two, e.g. 2048).
func New(kind Kind, entries int) (Predictor, error) {
	if kind == Perfect {
		return perfect{}, nil
	}
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, errors.New("bpred: table entries must be a positive power of two")
	}
	switch kind {
	case Bimodal:
		return newBimodal(entries), nil
	case TwoLevel:
		return newTwoLevel(entries, 4), nil
	case Combination:
		return &combination{
			bim:     newBimodal(entries),
			gsh:     newTwoLevel(entries, 4),
			chooser: make([]uint8, entries),
			mask:    uint64(entries - 1),
		}, nil
	default:
		return nil, fmt.Errorf("bpred: unknown kind %v", kind)
	}
}

type perfect struct{}

func (perfect) Observe(uint64, bool) bool { return false }

// counterTaken reports a 2-bit counter's prediction.
func counterTaken(c uint8) bool { return c >= 2 }

// bump saturates a 2-bit counter toward the outcome.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

type bimodal struct {
	table []uint8
	mask  uint64
}

func newBimodal(entries int) *bimodal {
	t := make([]uint8, entries)
	for i := range t {
		t[i] = 1 // weakly not-taken start, SimpleScalar's default bias
	}
	return &bimodal{table: t, mask: uint64(entries - 1)}
}

func (b *bimodal) Observe(pc uint64, taken bool) bool {
	i := (pc >> 2) & b.mask
	pred := counterTaken(b.table[i])
	b.table[i] = bump(b.table[i], taken)
	return pred != taken
}

type twoLevel struct {
	table   []uint8
	mask    uint64
	history uint64
	histLen uint
}

func newTwoLevel(entries int, histLen uint) *twoLevel {
	t := make([]uint8, entries)
	for i := range t {
		t[i] = 1
	}
	return &twoLevel{table: t, mask: uint64(entries - 1), histLen: histLen}
}

func (t *twoLevel) index(pc uint64) uint64 {
	return ((pc >> 2) ^ t.history) & t.mask
}

func (t *twoLevel) Observe(pc uint64, taken bool) bool {
	i := t.index(pc)
	pred := counterTaken(t.table[i])
	t.table[i] = bump(t.table[i], taken)
	t.history = (t.history << 1) & ((1 << t.histLen) - 1)
	if taken {
		t.history |= 1
	}
	return pred != taken
}

type combination struct {
	bim     *bimodal
	gsh     *twoLevel
	chooser []uint8
	mask    uint64
}

func (c *combination) Observe(pc uint64, taken bool) bool {
	i := (pc >> 2) & c.mask
	// Peek both component predictions before they update.
	bi := (pc >> 2) & c.bim.mask
	bPred := counterTaken(c.bim.table[bi])
	gi := c.gsh.index(pc)
	gPred := counterTaken(c.gsh.table[gi])

	useGshare := counterTaken(c.chooser[i])
	pred := bPred
	if useGshare {
		pred = gPred
	}
	// Update components (their own Observe also updates history).
	c.bim.Observe(pc, taken)
	c.gsh.Observe(pc, taken)
	// Train the chooser toward whichever component was right when they
	// disagree.
	if bPred != gPred {
		c.chooser[i] = bump(c.chooser[i], gPred == taken)
	}
	return pred != taken
}
