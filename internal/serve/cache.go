package serve

import (
	"bytes"
	"context"

	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
	"perfpred/internal/predcache"
)

// DefaultCacheEntries is the prediction cache's capacity when
// Config.CacheEntries is not positive.
const DefaultCacheEntries = 2048

// rowScratch is one /v1/predict request's pooled working set: the body,
// the resolved cell values, the encoded rows — both the cache keys and
// the batcher's payload — the predictions, the list of cache misses and
// the batcher request that scores them. A request whose scoring failed
// may have left a batch queued that still reads its rows and writes its
// miss predictions, so its scratch goes to the GC, not back to the pool.
type rowScratch struct {
	body     bytes.Buffer
	vals     []dataset.Value   // flat cell values, viewed row by row as rows
	rows     [][]dataset.Value // views into vals, parallel to the request's rows
	enc      dataset.RowBuffer
	out      []float64
	hashes   []uint64    // row hashes, parallel to the request's rows
	missIdx  []int       // row positions the cache missed
	missRows [][]float64 // rows for the batcher, parallel to missIdx
	missOut  []float64   // the batcher's predictions, parallel to missIdx
	req      request     // the batcher's queue entry for the misses
}

// predictInto scores rows, encoded by m's encoder, for m resolved at
// generation gen into out (len(out) == len(rows)), serving what it can
// from the cache. Each row is probed under its (model, generation, row
// hash) key; the misses go to the batcher in one call and their values
// are stored. ws supplies the working lists; after an error it must be
// dropped (see rowScratch).
//
// Correctness stance: the cache must be invisible except in latency.
// Hits return values the batcher produced for a float64-equal row under
// the same artifact generation.
func (s *Server) predictInto(ctx context.Context, ws *rowScratch, m *Model, gen int64, rows [][]float64, out []float64) error {
	// Cache-lookup fault point: injected latency delays the probe,
	// widening the window for eviction and reload races while the rows
	// are in flight. A fired error (the request's deadline expiring
	// during the stall included) is the request's error.
	if fired, err := s.bat.fi.Hit(ctx, faultinject.ServeCacheLookup); fired {
		s.met.faults.Inc()
		if err != nil {
			return err
		}
	}

	hashes, missIdx, missRows := ws.hashes[:0], ws.missIdx[:0], ws.missRows[:0]
	for i, row := range rows {
		hashes = append(hashes, predcache.HashRow(row))
		if val, ok := s.cache.Get(predcache.Key{Model: m.Name, Gen: gen, Hash: hashes[i]}, row); ok {
			out[i] = val
		} else {
			missIdx = append(missIdx, i)
			missRows = append(missRows, row)
		}
	}
	ws.hashes, ws.missIdx, ws.missRows = hashes, missIdx, missRows
	if len(missIdx) == 0 {
		return nil
	}
	if cap(ws.missOut) < len(missIdx) {
		ws.missOut = make([]float64, len(missIdx))
	}
	res := ws.missOut[:len(missIdx)]
	if err := s.bat.Predict(ctx, &ws.req, m, missRows, res); err != nil {
		return err
	}
	for j, i := range missIdx {
		out[i] = res[j]
		s.cache.Put(predcache.Key{Model: m.Name, Gen: gen, Hash: hashes[i]}, rows[i], res[j])
	}
	return nil
}
