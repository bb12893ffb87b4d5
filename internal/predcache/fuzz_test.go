package predcache

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRowKey checks the canonical row hash's two load-bearing
// properties over arbitrary rows:
//
//  1. Consistency: float64-equal rows (including -0.0 vs +0.0 in any
//     cell) hash equal — otherwise equal design points would occupy
//     separate cache entries and coalescing would silently stop.
//  2. Cell sensitivity: flipping any single bit of any single cell —
//     except a flip that only toggles the sign of zero or lands on a
//     NaN payload — changes the hash. The bijection argument in HashRow
//     promises this deterministically; the fuzzer hammers the promise
//     with arbitrary widths, cells and bit positions.
//
// Rows are decoded from raw bytes (8 per cell, little endian) so the
// fuzzer explores the full float64 bit space, not just values a JSON
// request could spell.
func FuzzRowKey(f *testing.F) {
	seedRow := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seedRow(), uint64(0), uint64(0))
	f.Add(seedRow(0), uint64(0), uint64(63))              // sign flip of +0.0
	f.Add(seedRow(1, 2.5, -3), uint64(1), uint64(0))      // low mantissa bit
	f.Add(seedRow(32, 4, 1, 0, 1), uint64(3), uint64(62)) // exponent bit
	f.Add(seedRow(1e308, -1e-308), uint64(0), uint64(52)) // exponent boundary
	f.Add(seedRow(0.1, 0.2, 0.3, 0.4), uint64(2), uint64(31))

	f.Fuzz(func(t *testing.T, data []byte, cell, bit uint64) {
		n := len(data) / 8
		if n == 0 || n > 512 {
			return
		}
		row := make([]float64, n)
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(row[i]) {
				// NaN cells break the equality premise (NaN != NaN, so such
				// rows can never hit anyway) — skip them for both properties.
				return
			}
		}

		h := HashRow(row)

		// Consistency: a fresh copy hashes identically.
		if HashRow(append([]float64(nil), row...)) != h {
			t.Fatalf("copy of row hashes differently")
		}
		// Consistency across signed zero: flipping the sign of every zero
		// cell must not move the hash, because the rows compare ==.
		zeroFlipped := append([]float64(nil), row...)
		flippedAny := false
		for i, v := range zeroFlipped {
			if v == 0 {
				zeroFlipped[i] = math.Copysign(0, -math.Copysign(1, v))
				flippedAny = true
			}
		}
		if flippedAny && HashRow(zeroFlipped) != h {
			t.Fatalf("flipping zero signs changed the hash")
		}

		// Cell sensitivity: perturb one bit of one cell.
		i := int(cell % uint64(n))
		b := uint(bit % 64)
		mut := append([]float64(nil), row...)
		mut[i] = math.Float64frombits(math.Float64bits(mut[i]) ^ (1 << b))
		switch {
		case math.IsNaN(mut[i]):
			// Perturbed into NaN: no equality claim either way.
		case mut[i] == row[i]:
			// The flip toggled only the sign of zero: rows still compare
			// equal, so hashes must still be equal.
			if HashRow(mut) != h {
				t.Fatalf("row equal after zero-sign flip but hash changed (cell %d bit %d)", i, b)
			}
		default:
			if HashRow(mut) == h {
				t.Fatalf("cell %d bit %d flip left hash unchanged (%v -> %v)", i, b, row[i], mut[i])
			}
		}
	})
}

// FuzzCacheMatchesReference holds the slab cache to refCache, the naive
// slice LRU, over op sequences decoded from the fuzz input, checking
// every answer, the counters and the slab's links after every op. The
// first byte sets the capacity (up to three chunks); each op then takes
// three bytes: the op (Get, Put or an Invalidate, late ones included),
// the row (widths 1 to 24, so the stride widens and slots change width)
// and the key (forged hashes shared by many rows, two models, the
// generations around the floor). An index-linked list hides its link
// bugs from hand-written sequences; this is where they show.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 1, 9, 1, 7, 9, 0, 0, 2, 2, 5, 40, 4, 0, 6})
	f.Add(bytes.Repeat([]byte{64, 1, 17, 2, 1, 200, 3, 5, 36, 137, 0, 1, 1}, 40))
	f.Add(bytes.Repeat([]byte{130, 2, 77, 10, 3, 150, 1, 1, 99, 35, 8, 3, 64}, 60))
	widths := []int{1, 2, 3, 21, 24}
	models := []string{"lre", "nns"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])%(3*chunkSlots)
		c, ref := New(capacity, nil), &refCache{cap: capacity}
		for step, op := 0, data[1:]; len(op) >= 3; step, op = step+1, op[3:] {
			row := make([]float64, widths[int(op[1])%len(widths)])
			for j := range row {
				row[j] = float64((int(op[1])/len(widths) + j) % 4)
			}
			hash := HashRow(row)
			if op[2]&1 == 1 {
				hash = uint64(op[2]>>1) % 4 // forged: many rows per hash
			}
			key := Key{Model: models[op[2]>>7], Gen: ref.floor + int64(op[2]>>3)%3 - 1, Hash: hash}
			switch op[0] % 8 {
			case 0:
				keep := ref.floor + int64(op[0]>>3)%3 - 1
				if got, want := c.Invalidate(keep), ref.invalidate(keep); got != want {
					t.Fatalf("step %d: Invalidate(%d) dropped %d, reference %d", step, keep, got, want)
				}
			case 1, 2, 3:
				c.Put(key, row, float64(op[0]))
				ref.put(key, row, float64(op[0]))
			default:
				val, ok := c.Get(key, row)
				if wval, wok := ref.get(key, row); val != wval || ok != wok {
					t.Fatalf("step %d: Get(%+v, %v) = %v %v, reference %v %v", step, key, row, val, ok, wval, wok)
				}
			}
			if err := matchesRef(c, ref); err != nil {
				t.Fatalf("capacity %d step %d: %v", capacity, step, err)
			}
		}
	})
}
