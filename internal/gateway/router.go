package gateway

import (
	"sort"
	"strconv"

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
// predcache.Combine. The body is read by the replicas' own pass 1,
// serve.ScanPredict; a body that fails it gets no key, and its error is
// the 400 the gateway answers with.
func routingKey(body []byte) (uint64, error) {
	req, err := serve.ScanPredict(body)
	if err != nil {
		return 0, err
	}
	key := predcache.HashString(string(req.Model))
	var buf [32]float64 // wider rows grow onto the heap
	rows := req.Rows()
	for _, row, ok := rows.Next(); ok; _, row, ok = rows.Next() {
		cells := buf[:0]
		it := serve.Values(row)
		for _, cell, ok := it.Next(); ok; _, cell, ok = it.Next() {
			cells = append(cells, projectCell(cell))
		}
		key = predcache.Combine(key, predcache.HashRow(cells))
	}
	return key, nil
}

// projectCell maps one wire cell, a JSON value span, onto a float64 for
// routing. The mapping only has to be deterministic and value-sensitive
// — replicas re-validate every cell against the model schema, so a lossy
// projection costs at worst a cache-affinity miss, never correctness:
// numbers by value; strings, null and unparseable numbers by the hash of
// their decoded text (a string with an escape allocates to decode); and
// every array or object cell, which every replica rejects, by one
// constant.
func projectCell(c []byte) float64 {
	switch c[0] {
	case '"':
		var sbuf [64]byte
		return float64(predcache.HashString(string(serve.Unquote(sbuf[:0], c))))
	case 't':
		return 1
	case 'f':
		return 0
	case 'n':
		return float64(predcache.HashString("<null>"))
	case '[', '{':
		return float64(predcache.HashString("<nested>"))
	}
	// Prefer the numeric value so "2" and "2.0" (equal after schema
	// resolution, therefore one cache row) route identically.
	if f, err := strconv.ParseFloat(string(c), 64); err == nil {
		return f
	}
	return float64(predcache.HashString(string(c)))
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

// spreadOrder is the non-affine ranking for read-only proxying:
// round-robin rotation of the replica list, so no replica takes all of
// it.
func (g *Gateway) spreadOrder() []*replica {
	start := int(g.rr.Add(1)-1) % len(g.reps)
	out := make([]*replica, 0, len(g.reps))
	for i := 0; i < len(g.reps); i++ {
		out = append(out, g.reps[(start+i)%len(g.reps)])
	}
	return out
}
