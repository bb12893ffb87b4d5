package linreg

import (
	"testing"

	"perfpred/internal/model"
	"perfpred/internal/model/modeltest"
)

// TestFamilyConformance runs the registry conformance suite over every
// linear-regression kind this package registers.
func TestFamilyConformance(t *testing.T) {
	for _, k := range []model.Kind{model.LRE, model.LRS, model.LRB, model.LRF} {
		k := k
		t.Run(k.String(), func(t *testing.T) { modeltest.TestFamily(t, k) })
	}
}
