package linreg

import (
	"encoding/json"
	"slices"
	"testing"
)

func TestModelSerializeRoundTrip(t *testing.T) {
	x, y := synth(31, 150, 0.05)
	for _, method := range Methods() {
		m, err := Fit(x, y, []string{"a", "b", "c", "d"}, Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.opts.Method != method || len(back.selected) != len(m.selected) {
			t.Fatalf("%v: meta mismatch", method)
		}
		for i := 0; i < 20; i++ {
			if back.Predict(x[i]) != m.Predict(x[i]) {
				t.Fatalf("%v: predictions diverge at %d", method, i)
			}
		}
		if back.rss != m.rss || back.tss != m.tss || back.intercept != m.intercept {
			t.Fatalf("%v: summary stats differ", method)
		}
		// inv has no reader, but it is part of the artifact and must
		// survive a round trip.
		if m.inv == nil || len(back.inv) != len(m.inv) {
			t.Fatalf("%v: (XᵀX)⁻¹ lost in the round trip", method)
		}
		for i := range m.inv {
			if !slices.Equal(back.inv[i], m.inv[i]) {
				t.Fatalf("%v: (XᵀX)⁻¹ row %d differs after the round trip", method, i)
			}
		}
		ca, cb := m.coeffs, back.coeffs
		if len(ca) != len(cb) {
			t.Fatalf("%v: coefficient tables differ", method)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%v: coefficient %d differs", method, i)
			}
		}
	}
}

func TestUnmarshalModelRejectsBadInput(t *testing.T) {
	cases := []string{
		`garbage`,
		`{"version":9}`,
		`{"version":1,"names":["a"],"coef":[1,2]}`,
		`{"version":1,"names":["a"],"coef":[1],"selected":[3]}`,
	}
	for i, c := range cases {
		if _, err := UnmarshalModel([]byte(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
