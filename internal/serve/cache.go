package serve

import (
	"context"

	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
	"perfpred/internal/predcache"
)

// DefaultCacheEntries is the prediction cache's capacity when
// Config.CacheEntries is not positive.
const DefaultCacheEntries = 2048

// rowScratch is one /v1/predict request's pooled working set: the
// encoded rows — both the cache keys and the batcher's payload — the
// predictions, and the cache's assembly lists. A request whose scoring
// failed may have left a batch queued that still reads its rows, so its
// scratch goes to the GC, not back to the pool.
type rowScratch struct {
	enc      dataset.RowBuffer
	out      []float64
	leadIdx  []int               // row positions this request must score
	leadFl   []*predcache.Flight // flights led, parallel to leadIdx
	leadRows [][]float64         // rows for the batcher, parallel to leadIdx
	waitIdx  []int               // row positions coalesced on other flights
	waitFl   []*predcache.Flight // flights waited on, parallel to waitIdx
	fbIdx    []int               // row positions needing fallback scoring
	fbRows   [][]float64         // rows for fallback, parallel to fbIdx
}

// predictInto scores rows, encoded by m's encoder, for m resolved at
// generation gen into out (len(out) == len(rows)), serving what it can
// from the cache. Each row is probed under its (model, generation, row
// hash) key; only the rows this request leads go to the batcher, and
// concurrent identical rows ride their flights, so they share one
// batcher slot. ws supplies the assembly lists; after an error it must
// be dropped (see rowScratch).
//
// Correctness stance: the cache must be invisible except in latency.
// Hits return values the batcher produced for a float64-equal row under
// the same artifact generation; any failure (batcher error, injected
// fault, abandoned flight) falls back to scoring through the batcher.
func (s *Server) predictInto(ctx context.Context, ws *rowScratch, m *Model, gen int64, rows [][]float64, out []float64) error {
	// Cache-lookup fault point: a forced error bypasses the cache for
	// this request (the fail-open path — answers must not change);
	// latency-only faults delay the probe, widening the window for
	// eviction and reload races while the rows are in flight.
	if fired, err := s.fi.Hit(ctx, faultinject.ServeCacheLookup); fired {
		s.met.faults.Inc()
		if err != nil {
			res, err := s.bat.Predict(ctx, m, rows)
			copy(out, res)
			return err
		}
	}

	leadIdx, leadFl, leadRows := ws.leadIdx[:0], ws.leadFl[:0], ws.leadRows[:0]
	waitIdx, waitFl := ws.waitIdx[:0], ws.waitFl[:0]
	for i, row := range rows {
		key := predcache.Key{Model: m.Name, Gen: gen, Hash: predcache.HashRow(row)}
		val, fl, outcome := s.cache.Lookup(key, row)
		switch outcome {
		case predcache.Hit:
			out[i] = val
		case predcache.Lead:
			leadIdx = append(leadIdx, i)
			leadFl = append(leadFl, fl)
			leadRows = append(leadRows, row)
		case predcache.Coalesce:
			waitIdx = append(waitIdx, i)
			waitFl = append(waitFl, fl)
		}
	}
	ws.leadIdx, ws.leadFl, ws.leadRows = leadIdx, leadFl, leadRows
	ws.waitIdx, ws.waitFl = waitIdx, waitFl

	// Score led rows first — before waiting on anything — so a request
	// that both leads and coalesces the same row (duplicates within one
	// batch body) resolves its own flights before blocking on them, and
	// no two requests can ever wait on each other's unscored leads.
	if len(leadIdx) > 0 {
		res, err := s.bat.Predict(ctx, m, leadRows)
		if err != nil {
			for _, fl := range leadFl {
				s.cache.Abandon(fl)
			}
			return err
		}
		for j, fl := range leadFl {
			out[leadIdx[j]] = res[j]
			s.cache.Fill(fl, res[j])
		}
	}

	// Collect coalesced rows; a flight abandoned by its leader falls back
	// to one batcher call for exactly those rows.
	fbIdx, fbRows := ws.fbIdx[:0], ws.fbRows[:0]
	for j, fl := range waitFl {
		val, ok, err := fl.Wait(ctx)
		if err != nil {
			return err
		}
		if ok {
			out[waitIdx[j]] = val
		} else {
			fbIdx = append(fbIdx, waitIdx[j])
			fbRows = append(fbRows, rows[waitIdx[j]])
		}
	}
	ws.fbIdx, ws.fbRows = fbIdx, fbRows
	if len(fbIdx) > 0 {
		res, err := s.bat.Predict(ctx, m, fbRows)
		if err != nil {
			return err
		}
		for j, i := range fbIdx {
			out[i] = res[j]
		}
	}
	// A pooled scratch must not pin resolved flights.
	clear(leadFl)
	clear(waitFl)
	return nil
}
