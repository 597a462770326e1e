// Property tests of KCore against check's definitional oracle, and the
// hook that hands check.RoundDecompose to the in-package replica tests.
// External test package because check imports core.
package core_test

import (
	"testing"
	"testing/quick"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/hypergraph"
)

func init() { core.RoundOracle = check.RoundDecompose }

// oracleCore is check.KCoreOracle's k-core of h as a core.Result.
func oracleCore(h *hypergraph.Hypergraph, k int) *core.Result {
	vIn, eIn := check.KCoreOracle(h, k)
	r := &core.Result{K: k, VertexIn: vIn, EdgeIn: eIn}
	for _, in := range vIn {
		if in {
			r.NumVertices++
		}
	}
	for _, in := range eIn {
		if in {
			r.NumEdges++
		}
	}
	return r
}

func TestPropertyKCoreMatchesNaive(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		h := core.RandomHypergraph(seed)
		k := 1 + int(kRaw%4)
		return check.SameResult(h, core.KCore(h, k), oracleCore(h, k)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoreIsMaximal(t *testing.T) {
	// No deleted vertex could have been kept: re-adding any single
	// deleted vertex (with its edges restricted to the core+v) cannot
	// yield a valid reduced sub-hypergraph with min degree ≥ k that
	// strictly contains the core.  We verify a weaker but telling
	// property: the oracle's k-core of the core plus one deleted vertex
	// leaves that vertex out again.
	prop := func(seed uint64, kRaw uint8) bool {
		h := core.RandomHypergraph(seed)
		k := 1 + int(kRaw%3)
		r := core.KCore(h, k)
		deleted := -1
		for v := range r.VertexIn {
			if !r.VertexIn[v] {
				deleted = v
				break
			}
		}
		if deleted < 0 {
			return true
		}
		keep := append([]bool(nil), r.VertexIn...)
		keep[deleted] = true
		keepF := make([]bool, h.NumEdges())
		for f := range keepF {
			keepF[f] = true
		}
		sub, vMap, _ := h.Sub(keep, keepF)
		vIn, _ := check.KCoreOracle(sub, k)
		nd, ok := vMap[deleted]
		if !ok {
			return true // deleted vertex had no edges at all
		}
		return !vIn[nd]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestResultSub materializes the planted 3-core, which check.ValidCore
// accepts as exactly the paper's reduced 3-core, with h.Sub over its
// membership slices as a valid sub-hypergraph of its four vertices and
// four hyperedges.
func TestResultSub(t *testing.T) {
	h := core.PlantedHypergraph(t)
	r := core.KCore(h, 3)
	if err := check.ValidCore(h, 3, r); err != nil {
		t.Fatal(err)
	}
	sub, _, _ := h.Sub(r.VertexIn, r.EdgeIn)
	if sub.NumVertices() != 4 || sub.NumEdges() != 4 {
		t.Errorf("materialized core = %v", sub)
	}
	if err := sub.CSR().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestPropertyCoreIsValid requires every k-core of a random instance
// to pass check.ValidCore: every vertex has degree ≥ k inside it, every
// hyperedge is maximal among the survivors, and no larger such
// sub-hypergraph exists.
func TestPropertyCoreIsValid(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		h := core.RandomHypergraph(seed)
		k := 1 + int(kRaw%4)
		return check.ValidCore(h, k, core.KCore(h, k)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestBiCoreValidity is TestPropertyCoreIsValid for the (k, l)-core
// and check.ValidBiCore, which also requires every surviving hyperedge
// to keep l vertices.
func TestBiCoreValidity(t *testing.T) {
	prop := func(seed uint64, kRaw, lRaw uint8) bool {
		h := core.RandomHypergraph(seed)
		k := 1 + int(kRaw%3)
		l := 1 + int(lRaw%3)
		return check.ValidBiCore(h, k, l, core.BiCore(h, k, l)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
