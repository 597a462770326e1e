package bio

import (
	"fmt"
	"sort"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// §4 names a second use for cover-based bait selection: "when we wish
// to use one organism as a model to identify the protein complexes in
// a related organism".  This file supplies that scenario.  An
// OrthologyMap relates the proteins of a model organism to a target
// organism; ProjectHypergraph transfers the model's complexes through
// the map (the prediction a biologist would start from); and
// DivergeComplexes simulates the true target proteome, which has
// drifted from the model by membership gains/losses and lost
// complexes.  Experiment X7 selects baits on the *projected*
// hypergraph and screens them against the *true* one.

// OrthologyMap maps model-organism vertex IDs to target-organism
// vertex IDs (-1 = no ortholog).
type OrthologyMap struct {
	// ToTarget[v] is the target protein for model protein v, or -1.
	ToTarget []int
	// TargetNames names the target proteome (the mapped proteins first,
	// then target-only proteins).
	TargetNames []string
}

// GenerateOrthology builds a synthetic orthology map: each model
// protein has an ortholog with probability orthologFrac, and the
// target proteome additionally contains extraTarget unmapped proteins.
// It returns an error when orthologFrac is outside [0,1].
func GenerateOrthology(h *hypergraph.Hypergraph, orthologFrac float64, extraTarget int, rng *xrand.RNG) (*OrthologyMap, error) {
	if orthologFrac < 0 || orthologFrac > 1 {
		return nil, fmt.Errorf("bio: orthologFrac %v outside [0,1]", orthologFrac)
	}
	m := &OrthologyMap{ToTarget: make([]int, h.NumVertices())}
	for v := 0; v < h.NumVertices(); v++ {
		if rng.Float64() < orthologFrac {
			m.ToTarget[v] = len(m.TargetNames)
			m.TargetNames = append(m.TargetNames, "t:"+h.VertexLabel(v))
		} else {
			m.ToTarget[v] = -1
		}
	}
	for i := 0; i < extraTarget; i++ {
		m.TargetNames = append(m.TargetNames, fmt.Sprintf("t:extra%04d", i))
	}
	return m, nil
}

// ProjectHypergraph transfers the model's complexes into the target
// proteome through the orthology map: each complex keeps its mapped
// members; complexes retaining fewer than minSize members are dropped.
// This is the *predicted* complex network of the target organism.
func ProjectHypergraph(h *hypergraph.Hypergraph, m *OrthologyMap, minSize int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for _, name := range m.TargetNames {
		b.AddVertex(name)
	}
	for f := 0; f < h.NumEdges(); f++ {
		var members []int32
		for _, v := range h.Vertices(f) {
			if t := m.ToTarget[v]; t >= 0 {
				members = append(members, int32(t))
			}
		}
		if len(members) >= minSize {
			b.AddEdgeIDs("proj:"+h.EdgeLabel(f), members)
		}
	}
	return b.MustBuild()
}

// DivergenceParams controls how the target's true complex network
// drifts from the projection.
type DivergenceParams struct {
	// DropComplex is the probability a projected complex does not exist
	// in the target at all.
	DropComplex float64
	// DropMember is the per-member probability of loss.
	DropMember float64
	// AddMember is the expected number of target-only proteins gained
	// per complex (sampled binomially from the unmapped pool).
	AddMember float64
}

// DivergeComplexes produces the target organism's true hypergraph from
// the projection: complexes vanish, lose members, and gain
// target-specific proteins.  Complexes reduced below two members are
// kept only if they had one member to begin with (mirroring real
// singleton complexes).
func DivergeComplexes(projected *hypergraph.Hypergraph, p DivergenceParams, rng *xrand.RNG) *hypergraph.Hypergraph {
	nv := projected.NumVertices()
	b := hypergraph.NewBuilder()
	for v := 0; v < nv; v++ {
		b.AddVertex(projected.VertexLabel(v))
	}
	for f := 0; f < projected.NumEdges(); f++ {
		if rng.Float64() < p.DropComplex {
			continue
		}
		var members []int32
		for _, v := range projected.Vertices(f) {
			if rng.Float64() >= p.DropMember {
				members = append(members, v)
			}
		}
		gains := rng.Binomial(8, p.AddMember/8)
		for i := 0; i < gains; i++ {
			members = append(members, int32(rng.Intn(nv)))
		}
		if len(members) == 0 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		b.AddEdgeIDs("true:"+projected.EdgeLabel(f), members)
	}
	return b.MustBuild()
}

// TransferBaits maps bait vertex IDs chosen on the projected
// hypergraph onto the true hypergraph by name (identical vertex sets
// by construction, but this keeps the coupling explicit and safe).
func TransferBaits(projected, truth *hypergraph.Hypergraph, baits []int) ([]int, error) {
	out := make([]int, 0, len(baits))
	for _, b := range baits {
		name := projected.VertexName(b)
		t, ok := truth.VertexID(name)
		if !ok {
			return nil, fmt.Errorf("bio: bait %q missing from the target proteome", name)
		}
		out = append(out, t)
	}
	return out, nil
}
