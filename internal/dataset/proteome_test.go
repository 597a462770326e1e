package dataset

import (
	"testing"

	"hyperplex/internal/core"
	"hyperplex/internal/stats"
)

func TestSyntheticProteome(t *testing.T) {
	h := SyntheticProteome(2000, 300, 7)
	if err := h.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 2000 || h.NumEdges() != 300 {
		t.Fatalf("shape: %v", h)
	}
	// Power-law-ish protein degrees.
	fit, err := stats.FitPowerLaw(stats.DegreeHistogram(h.VertexDegrees()))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Gamma < 1.5 || fit.Gamma > 3.5 {
		t.Errorf("gamma = %.2f, want Cellzome-like", fit.Gamma)
	}
	// A non-trivial dense core exists (the planted block guarantees
	// ≥ 6-core unless the configuration model out-densifies it, which
	// also yields ≥ 6).
	mc := core.MaxCore(h)
	if mc.K < 5 {
		t.Errorf("max core k = %d, want a dense nucleus", mc.K)
	}
}

func TestSyntheticProteomeDeterministic(t *testing.T) {
	a := SyntheticProteome(1500, 200, 3)
	b := SyntheticProteome(1500, 200, 3)
	if a.NumPins() != b.NumPins() {
		t.Fatal("same seed differs")
	}
	c := SyntheticProteome(1500, 200, 4)
	if a.NumPins() == c.NumPins() {
		t.Log("different seeds gave equal pin counts (possible but unlikely)")
	}
}

func TestSyntheticProteomePanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tiny instance accepted")
		}
	}()
	SyntheticProteome(10, 2, 1)
}

func TestSyntheticProteomeInfeasibleShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("infeasible shape (more complex pins than protein pins) accepted")
		}
	}()
	SyntheticProteome(100, 500, 1)
}
