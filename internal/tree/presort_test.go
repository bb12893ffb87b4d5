package tree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"perfpred/internal/stat"
)

// refBuilder grows a tree the way the builder did before it presorted:
// every node copies its rows and sorts them once per feature by
// (value, row index). It is the oracle the presorted builder must match.
type refBuilder struct {
	x     [][]float64
	y     []float64
	nodes []node
}

func (b *refBuilder) build(idx []int, depth int) uint16 {
	sum, sum2 := 0.0, 0.0
	for _, i := range idx {
		sum += b.y[i]
		sum2 += b.y[i] * b.y[i]
	}
	mean := sum / float64(len(idx))
	sse := sum2 - sum*sum/float64(len(idx))
	id := uint16(len(b.nodes))
	b.nodes = append(b.nodes, node{Feature: -1, Value: mean})
	if depth >= maxDepth || len(idx) < 2*minLeaf || sse <= 0 {
		return id
	}
	feat, thr, ok := b.bestSplit(idx, sum, sum2)
	if !ok {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[id] = node{Feature: int32(feat), Left: l, Right: r, Threshold: thr, Value: mean}
	return id
}

func (b *refBuilder) bestSplit(idx []int, sum, sum2 float64) (feat int, thr float64, ok bool) {
	n := len(idx)
	parentSSE := sum2 - sum*sum/float64(n)
	bestGain := 0.0
	for j := range len(b.x[0]) {
		order := slices.Clone(idx)
		slices.SortFunc(order, func(a, c int) int {
			va, vc := b.x[a][j], b.x[c][j]
			switch {
			case va < vc:
				return -1
			case va > vc:
				return 1
			}
			return a - c
		})
		sumL, sum2L := 0.0, 0.0
		for k := 0; k < n-1; k++ {
			yi := b.y[order[k]]
			sumL += yi
			sum2L += yi * yi
			v, next := b.x[order[k]][j], b.x[order[k+1]][j]
			if v == next {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			sumR, sum2R := sum-sumL, sum2-sum2L
			sseL := sum2L - sumL*sumL/float64(nl)
			sseR := sum2R - sumR*sumR/float64(nr)
			if gain := parentSSE - sseL - sseR; gain > bestGain {
				bestGain = gain
				feat = j
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// quantized returns n rows of p features, each one of levels values, and
// a target that is a quantized mix of the first two features, so both
// feature values and split gains tie often.
func quantized(n, p, levels int, seed int64) (x [][]float64, y []float64) {
	r := stat.NewRand(seed)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = float64(r.Intn(levels))
		}
		x[i] = row
		y[i] = float64(int(3*row[0]+row[min(1, p-1)]) % 5)
	}
	return x, y
}

// TestPresortBitIdentical grows trees with the presorted builder and
// with the per-node sorting oracle on the same bootstraps and asserts
// node-for-node equality: tie-heavy quantized features, constant columns,
// bootstraps drawn from a handful of rows, one feature, and four records.
func TestPresortBitIdentical(t *testing.T) {
	type dataCase struct {
		name string
		x    [][]float64
		y    []float64
	}
	var cases []dataCase
	for _, c := range []struct{ n, p, levels int }{
		{200, 5, 3}, {200, 5, 2}, {150, 1, 4}, {64, 3, 1}, {4, 2, 2}, {4, 1, 3}, {97, 6, 40},
	} {
		x, y := quantized(c.n, c.p, c.levels, int64(c.n*c.p+c.levels))
		cases = append(cases, dataCase{fmt.Sprintf("n=%d/p=%d/levels=%d", c.n, c.p, c.levels), x, y})
	}
	x, y := benchData(512, 8)
	cases = append(cases, dataCase{"benchData", x, y})

	// Bootstraps: grow's own uniform draw, draws from the first three
	// rows or the first eighth of them, and the identity.
	boots := []struct {
		name string
		pick func(r *rand.Rand, i, n int) int
	}{
		{"uniform", func(r *rand.Rand, _, n int) int { return r.Intn(n) }},
		{"three rows", func(r *rand.Rand, _, n int) int { return r.Intn(min(3, n)) }},
		{"an eighth", func(r *rand.Rand, _, n int) int { return r.Intn(max(1, n/8)) }},
		{"identity", func(_ *rand.Rand, i, _ int) int { return i }},
	}
	for _, dc := range cases {
		n := len(dc.x)
		for _, boot := range boots {
			for tr := range 6 {
				seed := stat.DeriveSeed(31, tr)
				draw := stat.NewRand(seed)
				bag := make([]int, n)
				for i := range bag {
					bag[i] = boot.pick(draw, i, n)
				}
				ref := &refBuilder{x: dc.x, y: dc.y}
				ref.build(bag, 0)

				s := scratchFrom(context.Background(), dc.x, dc.y)
				var got []node
				if boot.name == "uniform" {
					// grow draws the same bootstrap from the same seed.
					got = s.grow(seed, make([]float64, len(dc.x[0])))
				} else {
					for i, r := range bag {
						s.b.idx[i] = int32(r)
					}
					s.b.presort()
					s.b.nodes = s.b.nodes[:0]
					s.b.build(0, n, 0)
					got = s.b.nodes
				}
				if !slices.Equal(got, ref.nodes) {
					t.Fatalf("%s, %s bootstrap, tree %d: presorted builder grew %d nodes %v, per-node sort %d nodes %v",
						dc.name, boot.name, tr, len(got), got, len(ref.nodes), ref.nodes)
				}
			}
		}
	}
}
