package neural

import (
	"testing"

	"perfpred/internal/model"
	"perfpred/internal/model/modeltest"
)

// TestFamilyConformance runs the registry conformance suite over every
// neural kind this package registers.
func TestFamilyConformance(t *testing.T) {
	for _, k := range []model.Kind{model.NNQ, model.NND, model.NNM, model.NNP, model.NNE, model.NNS} {
		k := k
		t.Run(k.String(), func(t *testing.T) { modeltest.TestFamily(t, k) })
	}
}
