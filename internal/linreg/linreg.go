package linreg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"perfpred/internal/stat"
)

// Method selects the Clementine variable-selection strategy.
type Method int

const (
	// Enter (LR-E) uses every predictor.
	Enter Method = iota
	// Forward (LR-F) starts empty and adds the most significant predictor
	// while its F-to-enter p-value is below PEnter.
	Forward
	// Backward (LR-B) starts full and removes the least significant
	// predictor while its F-to-remove p-value is above PRemove. The paper
	// found this the best LR method for the sampled design space.
	Backward
	// Stepwise (LR-S) alternates Forward additions with Backward removals.
	Stepwise
)

// String returns the paper's short name for the method.
func (m Method) String() string {
	switch m {
	case Enter:
		return "LR-E"
	case Forward:
		return "LR-F"
	case Backward:
		return "LR-B"
	case Stepwise:
		return "LR-S"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all four selection methods in the paper's Figure 7/8 order.
func Methods() []Method { return []Method{Enter, Stepwise, Backward, Forward} }

// Options configures a fit.
type Options struct {
	Method Method
	// PEnter is the p-value threshold to admit a predictor (Forward,
	// Stepwise). Zero means the SPSS default 0.05.
	PEnter float64
	// PRemove is the p-value threshold to drop a predictor (Backward,
	// Stepwise). Zero means the SPSS default 0.10.
	PRemove float64
}

func (o Options) withDefaults() Options {
	if o.PEnter == 0 {
		o.PEnter = 0.05
	}
	if o.PRemove == 0 {
		o.PRemove = 0.10
	}
	return o
}

// Coefficient describes one fitted predictor.
type Coefficient struct {
	Name string
	// Beta is the raw coefficient in encoded-input units.
	Beta float64
	// StdBeta is the standardized coefficient (relative importance,
	// paper §4.4).
	StdBeta float64
	// StdErr is the coefficient's standard error (NaN when the residual
	// degrees of freedom are exhausted).
	StdErr float64
	// P is the two-sided p-value of the coefficient's t test (NaN when
	// undefined).
	P float64
}

// Model is a fitted linear-regression model.
type Model struct {
	opts      Options
	names     []string
	selected  []int // design-column indices included in the model
	intercept float64
	coef      []float64 // len = total columns; zero for unselected
	coeffs    []Coefficient
	rss       float64
	tss       float64
	n         int
	// inv is (XᵀX)⁻¹ in the fitted subset's basis ([1 | selected...]),
	// set for full-rank fits. It is serialized so artifacts keep their
	// bytes, but nothing reads it.
	inv [][]float64
}

// Fit fits a linear regression of y on x using the configured selection
// method. names labels the columns of x (used in coefficient reports);
// pass nil to auto-name columns.
func Fit(x [][]float64, y []float64, names []string, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	n := len(x)
	if n == 0 {
		return nil, errors.New("linreg: no observations")
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("linreg: no predictors")
	}
	if len(y) != n {
		return nil, errors.New("linreg: y length mismatch")
	}
	for _, row := range x {
		if len(row) != p {
			return nil, errors.New("linreg: ragged design matrix")
		}
	}
	if names == nil {
		names = make([]string, p)
		for j := range names {
			names[j] = fmt.Sprintf("x%d", j)
		}
	}
	if len(names) != p {
		return nil, errors.New("linreg: names length mismatch")
	}
	if n < 3 {
		return nil, errors.New("linreg: need at least 3 observations")
	}

	m := &Model{opts: opts, names: names, n: n}
	ymean := stat.Mean(y)
	for _, yi := range y {
		d := yi - ymean
		m.tss += d * d
	}

	ws := newLSQ(n, 1+p)
	var selected []int
	switch opts.Method {
	case Enter:
		selected = seqInts(p)
	case Forward:
		selected = ws.selectForward(x, y, opts, false)
	case Stepwise:
		selected = ws.selectForward(x, y, opts, true)
	case Backward:
		selected = ws.selectBackward(x, y, opts)
	default:
		return nil, fmt.Errorf("linreg: unknown method %v", opts.Method)
	}
	if len(selected) == 0 {
		// No predictor clears the threshold: intercept-only model.
		m.intercept = ymean
		m.coef = make([]float64, p)
		m.rss = m.tss
		return m, nil
	}
	sort.Ints(selected)
	m.selected = selected

	res := ws.solve(ws.factor(ws.load(x, selected), y))
	m.intercept = res.beta[0]
	m.coef = make([]float64, p)
	for si, j := range selected {
		m.coef[j] = res.beta[si+1]
	}
	m.rss = res.rss
	m.inv = res.inv

	// Coefficient table: standard errors, t tests, standardized betas.
	dfResid := n - len(selected) - 1
	var sigma2 float64
	if dfResid > 0 {
		sigma2 = res.rss / float64(dfResid)
	} else {
		sigma2 = math.NaN()
	}
	sy := stat.SampleStdDev(y)
	m.coeffs = make([]Coefficient, 0, len(selected))
	col := make([]float64, n)
	for si, j := range selected {
		for i := range x {
			col[i] = x[i][j]
		}
		sx := stat.SampleStdDev(col)
		c := Coefficient{Name: names[j], Beta: res.beta[si+1]}
		if sy > 0 {
			c.StdBeta = c.Beta * sx / sy
		}
		if !math.IsNaN(sigma2) && !math.IsNaN(res.invDiag[si+1]) {
			c.StdErr = math.Sqrt(sigma2 * res.invDiag[si+1])
			if c.StdErr > 0 {
				pv, perr := stat.TTestPValue(c.Beta/c.StdErr, float64(dfResid))
				if perr == nil {
					c.P = pv
				} else {
					c.P = math.NaN()
				}
			} else {
				c.P = math.NaN()
			}
		} else {
			c.StdErr = math.NaN()
			c.P = math.NaN()
		}
		m.coeffs = append(m.coeffs, c)
	}
	return m, nil
}

func seqInts(p int) []int {
	s := make([]int, p)
	for i := range s {
		s[i] = i
	}
	return s
}

// rssOf returns the residual sum of squares of the subset model, factored
// on the fit's workspace without forming coefficients.
func (w *lsq) rssOf(x [][]float64, y []float64, subset []int) float64 {
	return w.factor(w.load(x, subset), y)
}

// partialFPValue returns the p-value of the partial F test comparing the
// full model (rssFull, pFull predictors) to the model with one fewer
// predictor (rssReduced).
func partialFPValue(rssReduced, rssFull float64, n, pFull int) float64 {
	dfResid := n - pFull - 1
	if dfResid <= 0 {
		return math.NaN()
	}
	num := rssReduced - rssFull
	if num < 0 {
		num = 0
	}
	den := rssFull / float64(dfResid)
	if den <= 0 {
		// A perfect fit: any added predictor is maximally significant.
		if num > 0 {
			return 0
		}
		return 1
	}
	f := num / den
	p, err := stat.FSurvival(f, 1, float64(dfResid))
	if err != nil {
		return math.NaN()
	}
	return p
}

// selectForward implements Forward selection; with stepwise=true it runs a
// Backward removal sweep after every addition (Stepwise).
func (w *lsq) selectForward(x [][]float64, y []float64, opts Options, stepwise bool) []int {
	n := len(x)
	p := len(x[0])
	inModel := make([]bool, p)
	current := make([]int, 0, p)
	cand := make([]int, 0, p)
	reduced := make([]int, 0, p)
	rssCur := w.rssOf(x, y, nil)
	for len(current) < p {
		if n-(len(current)+1)-1 <= 0 {
			break // no residual degrees of freedom left for a test
		}
		bestJ, bestP, bestRSS := -1, math.Inf(1), 0.0
		for j := 0; j < p; j++ {
			if inModel[j] {
				continue
			}
			cand = append(append(cand[:0], current...), j)
			rss := w.rssOf(x, y, cand)
			pv := partialFPValue(rssCur, rss, n, len(cand))
			if math.IsNaN(pv) {
				continue
			}
			if pv < bestP || (pv == bestP && rss < bestRSS) {
				bestJ, bestP, bestRSS = j, pv, rss
			}
		}
		if bestJ < 0 || bestP > opts.PEnter {
			break
		}
		inModel[bestJ] = true
		current = append(current, bestJ)
		rssCur = bestRSS
		if stepwise {
			current, rssCur = w.removeSweep(x, y, current, reduced, opts)
			clear(inModel)
			for _, j := range current {
				inModel[j] = true
			}
		}
	}
	return current
}

// removeSweep repeatedly drops the least significant predictor whose
// F-to-remove p-value exceeds PRemove, editing current in place. reduced
// is scratch of capacity len(current) for the candidate subsets. Returns
// the surviving set and its RSS.
func (w *lsq) removeSweep(x [][]float64, y []float64, current, reduced []int, opts Options) ([]int, float64) {
	n := len(x)
	rssCur := w.rssOf(x, y, current)
	for len(current) > 0 {
		worstI, worstP := -1, -1.0
		var worstRSS float64
		for i := range current {
			reduced = append(append(reduced[:0], current[:i]...), current[i+1:]...)
			rssRed := w.rssOf(x, y, reduced)
			pv := partialFPValue(rssRed, rssCur, n, len(current))
			if math.IsNaN(pv) {
				// Degenerate d.f.: treat the predictor as removable so the
				// model shrinks to something testable.
				pv = 1
			}
			if pv > worstP {
				worstI, worstP, worstRSS = i, pv, rssRed
			}
		}
		if worstI < 0 || worstP < opts.PRemove {
			break
		}
		current = append(current[:worstI], current[worstI+1:]...)
		rssCur = worstRSS
	}
	return current, rssCur
}

// selectBackward implements Backward elimination from the full model.
func (w *lsq) selectBackward(x [][]float64, y []float64, opts Options) []int {
	p := len(x[0])
	out, _ := w.removeSweep(x, y, seqInts(p), make([]int, 0, p), opts)
	return out
}

// Predict returns the model's prediction for one encoded input row.
func (m *Model) Predict(x []float64) float64 {
	yhat := m.intercept
	for _, j := range m.selected {
		yhat += m.coef[j] * x[j]
	}
	return yhat
}

// NumInputs returns the width of the input rows the model expects —
// registry loaders use it to cross-check a deserialized model against
// its encoder.
func (m *Model) NumInputs() int { return len(m.coef) }
