package gateway

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"perfpred/internal/predcache"
)

// referenceOrder is the rendezvous ranking written the obvious way:
// sort.Slice over (score, replica), score descending, then idx.
func referenceOrder(reps []*replica, key uint64) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	ranked := make([]scored, len(reps))
	for i, rep := range reps {
		ranked[i] = scored{rep, predcache.Combine(rep.id, key)}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].rep.idx < ranked[b].rep.idx
	})
	out := make([]*replica, len(ranked))
	for i, s := range ranked {
		out[i] = s.rep
	}
	return out
}

// rankingTier is a gateway of n replicas for ranking tests only; with
// tie set, the last replica shares the first one's identity, so the two
// tie on score for every key and only idx orders them.
func rankingTier(n int, tie bool) *Gateway {
	g := &Gateway{}
	for i := 0; i < n; i++ {
		g.reps = append(g.reps, newReplica(i, fmt.Sprintf("replica-%d:80", i)))
	}
	if tie {
		g.reps[n-1].id = g.reps[0].id
	}
	return g
}

// TestOrderMatchesReference holds order to referenceOrder for 1 to 10
// replicas, past the stack buffer into the heap spill, with and without
// a forced score tie.
func TestOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 10; n++ {
		for _, tie := range []bool{false, true} {
			if tie && n == 1 {
				continue
			}
			g := rankingTier(n, tie)
			var buf [stackReplicas]*replica
			for i := 0; i < 10000; i++ {
				key := rng.Uint64()
				got, want := g.order(key, &buf), referenceOrder(g.reps, key)
				if len(got) != len(want) {
					t.Fatalf("n=%d: ranked %d replicas, want %d", n, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d tie=%v key %#x: position %d is replica %d, want %d",
							n, tie, key, j, got[j].idx, want[j].idx)
					}
				}
			}
		}
	}
}

// TestOrderZeroAlloc pins that ranking a tier of up to stackReplicas
// replicas, by rendezvous or round robin, stays on the caller's stack.
func TestOrderZeroAlloc(t *testing.T) {
	for n := 1; n <= stackReplicas; n++ {
		g := rankingTier(n, false)
		key := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			key++
			var buf [stackReplicas]*replica
			if len(g.order(key, &buf)) != n || len(g.spreadOrder(&buf)) != n {
				panic("short ranking")
			}
		})
		if allocs != 0 {
			t.Errorf("%d replicas: ranking allocates %.1f/op, want 0", n, allocs)
		}
	}
}
