// Differential tests validating the CSR graph expansions against the
// naive map-based oracles in internal/check, over the deterministic
// generator sweep.  This file is an external test package because
// check imports graph.
package graph_test

import (
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/graph"
)

func TestDifferentialCliqueExpansion(t *testing.T) {
	for i, h := range check.Instances(58, 0xE79A1) {
		g := graph.CliqueExpansion(h)
		want := check.CliqueEdges(h)
		if err := check.SameGraph(g, h.NumVertices(), want); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		if got := g.NumEdges(); got != len(want) {
			t.Fatalf("instance %d %v: clique expansion has %d edges, want %d", i, h, got, len(want))
		}
	}
}

func TestDifferentialStarExpansion(t *testing.T) {
	for i, h := range check.Instances(58, 0xE79A2) {
		// Default bait selection (highest degree, ties by ID).
		g := graph.StarExpansion(h, nil)
		if err := check.SameGraph(g, h.NumVertices(), check.StarEdges(h, nil)); err != nil {
			t.Fatalf("instance %d %v, default baits: %v", i, h, err)
		}
		// Explicit baits: first member of each hyperedge.
		baitOf := make([]int, h.NumEdges())
		for f := range baitOf {
			if m := h.Vertices(f); len(m) > 0 {
				baitOf[f] = int(m[0])
			} else {
				baitOf[f] = -1
			}
		}
		g = graph.StarExpansion(h, baitOf)
		if err := check.SameGraph(g, h.NumVertices(), check.StarEdges(h, baitOf)); err != nil {
			t.Fatalf("instance %d %v, explicit baits: %v", i, h, err)
		}
	}
}

func TestDifferentialIntersectionGraph(t *testing.T) {
	for i, h := range check.Instances(58, 0xE79A3) {
		g, edges, weights := graph.IntersectionGraph(h)
		want := check.IntersectionEdges(h)
		if len(edges) != len(weights) {
			t.Fatalf("instance %d %v: %d edges but %d weights", i, h, len(edges), len(weights))
		}
		if len(edges) != len(want) {
			t.Fatalf("instance %d %v: %d edges, want %d", i, h, len(edges), len(want))
		}
		boolWant := make(map[[2]int32]bool, len(want))
		for e := range want {
			boolWant[e] = true
		}
		if err := check.SameGraph(g, h.NumEdges(), boolWant); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		for j, e := range edges {
			key := e
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			shared, ok := want[key]
			if !ok {
				t.Fatalf("instance %d %v: edge (%d,%d) not in oracle", i, h, e[0], e[1])
			}
			if weights[j] != shared {
				t.Fatalf("instance %d %v: edge (%d,%d) weight %d, want %d shared proteins",
					i, h, e[0], e[1], weights[j], shared)
			}
		}
	}
}

func TestDifferentialBipartite(t *testing.T) {
	for i, h := range check.Instances(58, 0xE79A4) {
		g := graph.Bipartite(h)
		if err := check.SameGraph(g, h.NumVertices()+h.NumEdges(), check.BipartiteEdges(h)); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
	}
}
