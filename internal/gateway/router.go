package gateway

import (
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

// stackReplicas is how many replicas order and spreadOrder rank into a
// caller's stack buffer; a larger tier spills to the heap.
const stackReplicas = 8

// order ranks every replica by rendezvous (highest-random-weight) score
// for key, best first, into buf. Each replica's score is a
// deterministic hash of (replica identity, key), so:
//
//   - a given key always prefers the same replica while the replica set
//     is stable — that replica's cache holds the key's predictions;
//   - ejecting a replica only moves the keys it owned (each falls back
//     to its own second choice), leaving every other key's cache-warm
//     home untouched — the property plain mod-N hashing lacks;
//   - the ranking doubles as the retry order: position k+1 is exactly
//     where the key's cache entries migrate while position k is down.
//
// The order is total: score descending, then idx ascending. An
// insertion sort over at most stackReplicas entries allocates nothing.
func (g *Gateway) order(key uint64, buf *[stackReplicas]*replica) []*replica {
	out := buf[:0]
	var sbuf [stackReplicas]uint64
	scores := sbuf[:0]
	for _, rep := range g.reps {
		s := predcache.Combine(rep.id, key)
		out = append(out, rep)
		scores = append(scores, s)
		j := len(out) - 1
		for ; j > 0 && (scores[j-1] < s || scores[j-1] == s && out[j-1].idx > rep.idx); j-- {
			out[j], scores[j] = out[j-1], scores[j-1]
		}
		out[j], scores[j] = rep, s
	}
	return out
}

// spreadOrder is the non-affine ranking for read-only proxying:
// round-robin rotation of the replica list into buf, so no replica takes
// all of it.
func (g *Gateway) spreadOrder(buf *[stackReplicas]*replica) []*replica {
	start := int(g.rr.Add(1)-1) % len(g.reps)
	out := buf[:0]
	for i := range g.reps {
		out = append(out, g.reps[(start+i)%len(g.reps)])
	}
	return out
}
