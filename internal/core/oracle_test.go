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
	// leaves that vertex out again.  The sub-hypergraph keeps h's IDs:
	// every hyperedge keeps its kept members, and the other vertices
	// stay as isolated vertices, which no k-core holds.
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
		rows := make([][]int32, h.NumEdges())
		for f := range rows {
			for _, v := range h.Vertices(f) {
				if keep[v] {
					rows[f] = append(rows[f], v)
				}
			}
		}
		sub, err := hypergraph.FromEdgeSets(h.NumVertices(), rows)
		if err != nil {
			t.Fatal(err)
		}
		vIn, _ := check.KCoreOracle(sub, k)
		return !vIn[deleted]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPlantedCoreIsValid requires KCore's 3-core of the planted
// instance to pass check.ValidCore, as exactly the paper's reduced
// 3-core, and to hold its four vertices and four hyperedges.
func TestPlantedCoreIsValid(t *testing.T) {
	h := core.PlantedHypergraph(t)
	r := core.KCore(h, 3)
	if err := check.ValidCore(h, 3, r); err != nil {
		t.Fatal(err)
	}
	if r.NumVertices != 4 || r.NumEdges != 4 {
		t.Errorf("3-core holds %d vertices and %d hyperedges, want 4 and 4", r.NumVertices, r.NumEdges)
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
