package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// encodeOracle is v in the wire encoding, from a fresh encoder.
func encodeOracle(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := EncodeJSON(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// writeJSONBody answers v through WriteJSON and reports what went out
// if it is not the 200 JSON response carrying want.
func writeJSONBody(v any, want []byte) error {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, v)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		return fmt.Errorf("answered %d with Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		return fmt.Errorf("body %q, want %q", rec.Body.Bytes(), want)
	}
	return nil
}

// TestWriteJSONMatchesEncodeJSON holds the pooled writer to EncodeJSON
// byte for byte on every response type the daemon and the gateway
// write, sequentially, after a body too large to pool, and from several
// goroutines at once; and checks the large body's buffer stayed out of
// the pool.
func TestWriteJSONMatchesEncodeJSON(t *testing.T) {
	y := 41.25
	big := make([]float64, 8000)
	for i := range big {
		big[i] = 1234.5678901234 + float64(i)
	}
	bodies := []any{
		&PredictResponse{Model: "pd-lre", Kind: "LR-E", N: 1, Prediction: &y, Predictions: []float64{y}},
		&PredictResponse{Model: "pd-lre", Kind: "LR-E", N: 3, Predictions: []float64{1, 2.5e-9, 3e21}},
		ErrorResponse{Error: `unknown model "<&>" (see /v1/models)`},
		ModelsResponse{Generation: 3, Models: []ModelInfo{{
			Name: "m", Kind: "NN-E", Family: "nn/v1", Target: "cycles",
			Fields: []FieldInfo{{Name: "l2", Kind: "numeric"}, {Name: "bp", Kind: "categorical"}}, Columns: 9,
		}}},
		ReloadResponse{Generation: 4, Models: []string{"a", "b"}},
	}
	wants := make([][]byte, len(bodies))
	for i, v := range bodies {
		wants[i] = encodeOracle(t, v)
		if err := writeJSONBody(v, wants[i]); err != nil {
			t.Errorf("%T: %v", v, err)
		}
	}

	large := &PredictResponse{Model: "m", Kind: "LR-E", N: len(big), Predictions: big}
	wantLarge := encodeOracle(t, large)
	if len(wantLarge) <= maxPooledJSON {
		t.Fatalf("large body is %d bytes, want more than %d", len(wantLarge), maxPooledJSON)
	}
	if err := writeJSONBody(large, wantLarge); err != nil {
		t.Fatalf("large body: %v", err)
	}
	jw := jsonWriters.Get().(*jsonWriter)
	if c := jw.buf.Cap(); c > maxPooledJSON {
		t.Errorf("a %d-byte buffer went back to the pool, cap is %d", c, maxPooledJSON)
	}
	jsonWriters.Put(jw)
	if err := writeJSONBody(bodies[0], wants[0]); err != nil {
		t.Errorf("small body after a large one: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(bodies)
				if err := writeJSONBody(bodies[k], wants[k]); err != nil {
					t.Errorf("goroutine %d, %T: %v", g, bodies[k], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
