package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"perfpred/internal/predcache"
	"perfpred/internal/serve"
)

// routingKey projects a predict request body onto the 64-bit keyspace
// the replicas' prediction caches are keyed in. Two byte-identical
// bodies always produce the same key, and — the property cache affinity
// actually needs — two bodies naming the same model and carrying the
// same feature values produce the same key even if their JSON framing
// differs (single-row vs one-element batch, whitespace, field order).
//
// The projection reuses the predcache primitives end to end: each row's
// cells become float64s fed through predcache.HashRow (the cache's own
// row hash), and the model name plus per-row hashes fold together with
// predcache.Combine. A body that fails strict decoding gets no key
// (ok=false); the gateway routes it round-robin and lets the replica
// produce the authoritative 4xx.
func routingKey(body []byte) (key uint64, ok bool) {
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
			cells = append(cells, projectCell(cell))
		}
		key = predcache.Combine(key, predcache.HashRow(cells))
	}
	return key, true
}

// projectCell maps one wire cell onto a float64 for routing. The
// mapping only has to be deterministic and value-sensitive — replicas
// re-validate every cell against the model schema, so a lossy
// projection costs at worst a cache-affinity miss, never correctness.
func projectCell(v any) float64 {
	switch c := v.(type) {
	case json.Number:
		// Prefer the numeric value so "2" and "2.0" (equal after schema
		// resolution, therefore one cache row) route identically.
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
	case float64: // a non-UseNumber decoder upstream
		return c
	case nil:
		return float64(predcache.HashString("<null>"))
	default:
		return float64(predcache.HashString(fmt.Sprint(c)))
	}
}

// order ranks every replica by rendezvous (highest-random-weight) score
// for key, best first. Each replica's score is a deterministic hash of
// (replica identity, key), so:
//
//   - a given key always prefers the same replica while the replica set
//     is stable — that replica's cache holds the key's predictions;
//   - ejecting a replica only moves the keys it owned (each falls back
//     to its own second choice), leaving every other key's cache-warm
//     home untouched — the property plain mod-N hashing lacks;
//   - the ranking doubles as the retry order: position k+1 is exactly
//     where the key's cache entries migrate while position k is down.
func (g *Gateway) order(key uint64) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	ranked := make([]scored, len(g.reps))
	for i, rep := range g.reps {
		ranked[i] = scored{rep, predcache.Combine(rep.id, key)}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].rep.idx < ranked[b].rep.idx // total order tiebreak
	})
	out := make([]*replica, len(ranked))
	for i, s := range ranked {
		out[i] = s.rep
	}
	return out
}

// spreadOrder is the non-affine fallback ranking for requests without a
// routing key (malformed bodies, admin proxying): round-robin rotation
// of the replica list, so broken traffic cannot pile onto one replica.
func (g *Gateway) spreadOrder() []*replica {
	start := int(g.rr.Add(1)-1) % len(g.reps)
	out := make([]*replica, 0, len(g.reps))
	for i := 0; i < len(g.reps); i++ {
		out = append(out, g.reps[(start+i)%len(g.reps)])
	}
	return out
}
