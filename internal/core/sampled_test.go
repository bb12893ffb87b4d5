package core

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"perfpred/internal/engine"
	"perfpred/internal/tree"
)

// sampledKinds are the four families the dse benchmark compares.
var sampledKinds = []ModelKind{LRB, NNE, NNS, tree.KindTreeB}

// TestSampledDSEAllocs pins the allocations of a whole sampled-DSE run
// on one worker with no hook: 10 % of synthSpace(900, 77) trained and
// cross-validated for LR-B, NN-E, NN-S and TREE-B, then the whole space
// predicted. Without a hook no task label is built, a TREE-B fit keeps
// its per-tree importance in one matrix and shares one Run func across
// its trees, engine.Map shares one across its chunks, the prune steps
// score saliency into the worker scratch, the CV folds draw their
// splits from one worker generator and Evaluate turns its predictions
// into APEs in place: 1,686 objects per run measured, with or without
// the race detector, against 1,902 with a closure per tree and per
// chunk and 2,661 when every one of those was allocated. The bound is
// the measured value plus 10 %.
func TestSampledDSEAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models three times")
	}
	full := synthSpace(t, 900, 77)
	cfg := TrainConfig{Seed: 123, Workers: 1, EpochScale: 0.5}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RunSampledDSE(context.Background(), full, 0.1, sampledKinds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1855 {
		t.Fatalf("RunSampledDSE allocates %.0f objects, want <= 1855", allocs)
	}
}

// eventLabelsFixture lists, one "kind<TAB>label<TAB>count" line per
// distinct pair in sorted order, every event a hooked sampled-DSE run
// emits. Regenerate with:
//
//	go test ./internal/core -run TestSampledDSEEventLabels -update
const eventLabelsFixture = "testdata/dse_event_labels.txt"

// TestSampledDSEEventLabels holds the label contract: labels are built
// only when a hook observes the pool, and when one does, every event
// carries the label it always has. A run at 2 workers must emit exactly
// the fixture's multiset of (kind, label) pairs.
func TestSampledDSEEventLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models")
	}
	var mu sync.Mutex
	counts := map[string]int{}
	hook := func(e engine.Event) {
		mu.Lock()
		counts[e.Kind.String()+"\t"+e.Label]++
		mu.Unlock()
	}
	full := synthSpace(t, 900, 77)
	cfg := TrainConfig{Seed: 123, Workers: 2, EpochScale: 0.1, Hook: hook}
	if _, err := RunSampledDSE(context.Background(), full, 0.1, sampledKinds, cfg); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("%s\t%d", k, n))
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(eventLabelsFixture, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(eventLabelsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("event %q is not in the fixture", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			t.Errorf("fixture event %q was not emitted", l)
		}
	}
}
