package analysis_test

import (
	"testing"

	"aitf/internal/analysis"
	"aitf/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "core")
}

// TestDeterminismAllowlistedPackage: wire owns real clocks and
// sockets; none of its ambient inputs are flagged, but a runtime timer
// started outside its clock driver file is.
func TestDeterminismAllowlistedPackage(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "wire")
}
