package tree

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// modelState is the artifact: T is [][]wireNode when saving and
// packedTrees when loading.
type modelState[T any] struct {
	Version    int       `json:"version"`
	NumInputs  int       `json:"num_inputs"`
	Importance []float64 `json:"importance"`
	Trees      T         `json:"trees"`
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
	return json.Marshal(modelState[[][]wireNode]{
		Version:    modelVersion,
		NumInputs:  m.numInputs,
		Importance: m.importance,
		Trees:      trees,
	})
}

// UnmarshalModel restores a model serialized by MarshalJSON, validating
// the node arrays so a corrupted artifact can never send a tree walk out
// of bounds. A feature or child index that overflows its node field fails
// to decode. All trees share one exact-size node array, each tree a
// capacity-clipped view of it.
func UnmarshalModel(data []byte) (*Model, error) {
	var st modelState[packedTrees]
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
	for ti, nodes := range st.Trees {
		for ni, nd := range nodes {
			if int(nd.Feature) >= st.NumInputs {
				return nil, fmt.Errorf("tree: tree %d node %d splits on feature %d of %d", ti, ni, nd.Feature, st.NumInputs)
			}
		}
	}
	return &Model{trees: st.Trees, numInputs: st.NumInputs, importance: st.Importance}, nil
}

// packedTrees is the artifact's trees array as UnmarshalModel loads it.
type packedTrees [][]node

// UnmarshalJSON decodes the trees one at a time into one reused buffer,
// checks each tree's links, and appends it to the model's node array.
// MarshalJSON writes every node as one JSON object and nothing else in
// the array, so the array's count of '{' sizes the node array exactly;
// an artifact it did not write is repacked at the end if the count was
// off.
func (p *packedTrees) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok == nil {
		return err // a null array leaves no trees
	} else if tok != json.Delim('[') {
		return fmt.Errorf("trees is not an array")
	}
	hint := bytes.Count(data, []byte("{"))
	all, buf := make([]node, 0, hint), make([]node, 0, maxNodes)
	for ti := 0; dec.More(); ti++ {
		// Decode reuses buf's elements and sets only the fields a node
		// spells, so clear what the last tree left.
		clear(buf[:cap(buf)])
		if err := dec.Decode(&buf); err != nil {
			return fmt.Errorf("tree %d: %w", ti, err)
		}
		if len(buf) == 0 {
			return fmt.Errorf("tree %d is empty", ti)
		}
		for ni, nd := range buf {
			// A split's children must point strictly forward in the flat
			// array, which also guarantees walks terminate.
			if nd.Feature >= 0 && (int(nd.Left) <= ni || int(nd.Right) <= ni ||
				int(nd.Left) >= len(buf) || int(nd.Right) >= len(buf)) {
				return fmt.Errorf("tree %d node %d has invalid children [%d, %d]", ti, ni, nd.Left, nd.Right)
			}
		}
		start := len(all)
		all = append(all, buf...)
		*p = append(*p, all[start:len(all):len(all)])
	}
	if len(all) != hint {
		packed := make([]node, 0, len(all))
		for ti, nodes := range *p {
			start := len(packed)
			packed = append(packed, nodes...)
			(*p)[ti] = packed[start:len(packed):len(packed)]
		}
	}
	return nil
}
