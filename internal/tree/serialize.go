package tree

import (
	"encoding/json"
	"fmt"
)

// modelState is the artifact: node is the loaded layout, wireNode the
// saved one.
type modelState[N any] struct {
	Version    int       `json:"version"`
	NumInputs  int       `json:"num_inputs"`
	Importance []float64 `json:"importance"`
	Trees      [][]N     `json:"trees"`
}

// wireNode is a node in the artifact's field order, which node's 24-byte
// layout does not keep. encoding/json decodes fields in any order, so
// only saving goes through it.
type wireNode struct {
	Feature   int32   `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      uint16  `json:"l,omitempty"`
	Right     uint16  `json:"r,omitempty"`
	Value     float64 `json:"v"`
}

const modelVersion = 1

// MarshalJSON serializes the fitted ensemble so it can be persisted and
// later used for prediction without refitting.
func (m *Model) MarshalJSON() ([]byte, error) {
	trees := make([][]wireNode, len(m.trees))
	for t, nodes := range m.trees {
		trees[t] = make([]wireNode, len(nodes))
		for i, nd := range nodes {
			trees[t][i] = wireNode{Feature: nd.Feature, Threshold: nd.Threshold, Left: nd.Left, Right: nd.Right, Value: nd.Value}
		}
	}
	return json.Marshal(modelState[wireNode]{
		Version:    modelVersion,
		NumInputs:  m.numInputs,
		Importance: m.importance,
		Trees:      trees,
	})
}

// UnmarshalModel restores a model serialized by MarshalJSON, validating
// the node arrays so a corrupted artifact can never send a tree walk out
// of bounds. A feature or child index that overflows its node field fails
// to decode. The trees are then packed into one exact-size node array,
// each tree a capacity-clipped view of it.
func UnmarshalModel(data []byte) (*Model, error) {
	var st modelState[node]
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("tree: decoding model: %w", err)
	}
	if st.Version != modelVersion {
		return nil, fmt.Errorf("tree: unsupported model version %d", st.Version)
	}
	if st.NumInputs <= 0 {
		return nil, fmt.Errorf("tree: invalid input width %d", st.NumInputs)
	}
	if len(st.Trees) == 0 {
		return nil, fmt.Errorf("tree: model has no trees")
	}
	if len(st.Importance) != st.NumInputs {
		return nil, fmt.Errorf("tree: %d importance scores for %d inputs", len(st.Importance), st.NumInputs)
	}
	total := 0
	for ti, nodes := range st.Trees {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("tree: tree %d is empty", ti)
		}
		total += len(nodes)
		for ni, nd := range nodes {
			if nd.Feature < 0 {
				continue // leaf
			}
			if int(nd.Feature) >= st.NumInputs {
				return nil, fmt.Errorf("tree: tree %d node %d splits on feature %d of %d", ti, ni, nd.Feature, st.NumInputs)
			}
			// Children must point strictly forward in the flat array, which
			// also guarantees walks terminate.
			if int(nd.Left) <= ni || int(nd.Right) <= ni ||
				int(nd.Left) >= len(nodes) || int(nd.Right) >= len(nodes) {
				return nil, fmt.Errorf("tree: tree %d node %d has invalid children [%d, %d]", ti, ni, nd.Left, nd.Right)
			}
		}
	}
	all := make([]node, 0, total)
	for ti, nodes := range st.Trees {
		start := len(all)
		all = append(all, nodes...)
		st.Trees[ti] = all[start:len(all):len(all)]
	}
	return &Model{trees: st.Trees, numInputs: st.NumInputs, importance: st.Importance}, nil
}
