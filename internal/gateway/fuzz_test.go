package gateway

import (
	"bytes"
	"encoding/json"
	"testing"

	"perfpred/internal/predcache"
	"perfpred/internal/serve"
)

// oracleRoutingKey is the gateway's routing key as it was computed
// before the body scanner: strict encoding/json decoding, then each
// decoded cell projected by oracleProjectCell. FuzzRoutingKey holds
// routingKey to it bit for bit, so no key moves replica, except that a
// nested cell, which every replica rejects, keys as one constant on both
// sides.
func oracleRoutingKey(body []byte) (key uint64, ok bool) {
	req, err := serve.DecodePredictRequest(bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	rows := req.Rows
	if req.Row != nil {
		rows = [][]any{req.Row}
	}
	key = predcache.HashString(req.Model)
	cells := make([]float64, 0, 16)
	for _, row := range rows {
		cells = cells[:0]
		for _, cell := range row {
			cells = append(cells, oracleProjectCell(cell))
		}
		key = predcache.Combine(key, predcache.HashRow(cells))
	}
	return key, true
}

func oracleProjectCell(v any) float64 {
	switch c := v.(type) {
	case json.Number:
		if f, err := c.Float64(); err == nil {
			return f
		}
		return float64(predcache.HashString(string(c)))
	case string:
		return float64(predcache.HashString(c))
	case bool:
		if c {
			return 1
		}
		return 0
	case float64:
		return c
	case nil:
		return float64(predcache.HashString("<null>"))
	default: // []any or map[string]any
		return float64(predcache.HashString("<nested>"))
	}
}

// FuzzRoutingKey is the routing key's differential test: a body gets a
// key exactly when the oracle decodes it, and then the same key.
func FuzzRoutingKey(f *testing.F) {
	for _, s := range []string{
		`{"model":"m","row":[1,2.5,3]}`,
		`{"model":"m","rows":[[1,2.5,3],[4,"bimodal",true]]}`,
		`{"MODEL":"m","rowſ":[[1,2.5,3]]}`,
		`{"model":"m","row":[1,2,3],"row":null,"rows":[[1,2,3]]}`,
		`{"model":"m","row":[1,"bimodal","😀\udc00"]}`,
		`{"model":"m","row":[[1,"a",null],{"b":2,"a":[true],"b":{}},false]}`,
		`{"model":"m","row":[-0,0,1e999,-1e999,1e-400]}`,
		`{"model":"m","rows":[null,[],[null]]}`,
		`{"model":"m","row":[1]}]`,
		`{"not":"a request"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wok := oracleRoutingKey(body)
		got, err := routingKey(body)
		if (err == nil) != wok || got != want {
			t.Fatalf("routingKey = %#x, %v; oracle %#x, %v", got, err, want, wok)
		}
	})
}
