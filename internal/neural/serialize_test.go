package neural

import (
	"context"
	"encoding/json"
	"math"
	"testing"
)

func TestModelSerializeRoundTrip(t *testing.T) {
	x, y := smoothData(41, 100)
	for _, method := range []Method{Quick, Single, Prune} {
		m, err := Train(context.Background(), x, y, Config{Method: method, Seed: 3, EpochScale: 0.3})
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
		if back.method != method {
			t.Fatalf("%v: method became %v", method, back.method)
		}
		for i := 0; i < 30; i++ {
			if back.net.Predict1(x[i]) != m.net.Predict1(x[i]) {
				t.Fatalf("%v: prediction diverges at %d", method, i)
			}
		}
		// NaN validation MSE must survive the trip (Single has none).
		if math.IsNaN(m.valMSE) != math.IsNaN(back.valMSE) {
			t.Fatalf("%v: valMSE NaN-ness lost", method)
		}
	}
}

func TestSerializePreservesFrozenInputs(t *testing.T) {
	x, y := smoothData(42, 80)
	m, err := Train(context.Background(), x, y, Config{Method: Single, Seed: 4, EpochScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.net.FreezeInput(1); err != nil {
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
	if !back.net.InputFrozen(1) || back.net.InputFrozen(0) {
		t.Fatal("frozen-input mask lost")
	}
}

func TestUnmarshalModelRejectsBadInput(t *testing.T) {
	cases := []string{
		`garbage`,
		`{"version":7}`,
		`{"version":1,"net":{"sizes":[2],"layers":[],"frozen_input":[false,false]}}`,
		`{"version":1,"net":{"sizes":[2,1],"layers":[],"frozen_input":[false,false]}}`,
		`{"version":1,"net":{"sizes":[2,1],"layers":[{"w":[[1,2,3]],"act":0}],"frozen_input":[false]}}`,
		`{"version":1,"net":{"sizes":[2,1],"layers":[{"w":[[1,2]],"act":0}],"frozen_input":[false,false]}}`,
		`{"version":1,"net":{"sizes":[2,1],"layers":[{"w":[[1,2,3]],"act":42}],"frozen_input":[false,false]}}`,
	}
	for i, c := range cases {
		if _, err := UnmarshalModel([]byte(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
