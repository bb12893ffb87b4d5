package linreg

import (
	"encoding/json"
	"fmt"
	"math"
)

type modelState struct {
	Version   int           `json:"version"`
	Method    Method        `json:"method"`
	PEnter    float64       `json:"p_enter"`  // always pEnter; not read back
	PRemove   float64       `json:"p_remove"` // always pRemove; not read back
	Names     []string      `json:"names"`
	Selected  []int         `json:"selected"`
	Intercept float64       `json:"intercept"`
	Coef      []float64     `json:"coef"`
	Coeffs    []Coefficient `json:"coeffs"`
	RSS       float64       `json:"rss"`
	TSS       float64       `json:"tss"`
	N         int           `json:"n"`
	Inv       [][]float64   `json:"inv,omitempty"` // full-rank fits only, so never NaN
}

// coefState is a Coefficient on the wire. A rank-deficient or saturated
// fit leaves StdErr and P undefined (NaN), which JSON cannot hold.
type coefState struct {
	Name          string
	Beta, StdBeta float64
	StdErr, P     nanFloat
}

// MarshalJSON encodes the coefficient with undefined StdErr and P as null.
func (c Coefficient) MarshalJSON() ([]byte, error) {
	return json.Marshal(coefState{c.Name, c.Beta, c.StdBeta, nanFloat(c.StdErr), nanFloat(c.P)})
}

// UnmarshalJSON decodes a coefficient, reading a null StdErr or P as NaN.
func (c *Coefficient) UnmarshalJSON(data []byte) error {
	var st coefState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*c = Coefficient{st.Name, st.Beta, st.StdBeta, float64(st.StdErr), float64(st.P)}
	return nil
}

// nanFloat is a float64 that encodes NaN as JSON null and decodes null as
// NaN. Every other value encodes exactly as a float64 does, so a model
// without NaNs saves the same bytes either way.
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func (f *nanFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = nanFloat(math.NaN())
		return nil
	}
	return json.Unmarshal(data, (*float64)(f))
}

const modelVersion = 1

// MarshalJSON serializes the fitted model so it can be persisted and later
// used for prediction without refitting.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelState{
		Version:   modelVersion,
		Method:    m.opts.Method,
		PEnter:    pEnter,
		PRemove:   pRemove,
		Names:     m.names,
		Selected:  m.selected,
		Intercept: m.intercept,
		Coef:      m.coef,
		Coeffs:    m.coeffs,
		RSS:       m.rss,
		TSS:       m.tss,
		N:         m.n,
		Inv:       m.inv,
	})
}

// UnmarshalModel restores a model serialized by MarshalJSON.
func UnmarshalModel(data []byte) (*Model, error) {
	var st modelState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("linreg: decoding model: %w", err)
	}
	if st.Version != modelVersion {
		return nil, fmt.Errorf("linreg: unsupported model version %d", st.Version)
	}
	if len(st.Coef) != len(st.Names) {
		return nil, fmt.Errorf("linreg: %d coefficients for %d names", len(st.Coef), len(st.Names))
	}
	for _, j := range st.Selected {
		if j < 0 || j >= len(st.Coef) {
			return nil, fmt.Errorf("linreg: selected index %d out of range", j)
		}
	}
	return &Model{
		opts:      Options{Method: st.Method},
		names:     st.Names,
		selected:  st.Selected,
		intercept: st.Intercept,
		coef:      st.Coef,
		coeffs:    st.Coeffs,
		rss:       st.RSS,
		tss:       st.TSS,
		n:         st.N,
		inv:       st.Inv,
	}, nil
}
