package graph

import (
	"hyperplex/internal/hypergraph"
)

// This file implements the graph representations of protein-complex
// data that the paper criticizes in §1.2, so that the model-comparison
// experiment (X4) can quantify their costs against the hypergraph.

// CliqueExpansion returns the protein-protein interaction graph in
// which every complex is replaced by a clique on its members.  A
// complex with n members costs O(n²) edges here versus the O(n) pins of
// the hypergraph — the space blow-up the paper calls out.  The returned
// graph shares vertex IDs with h.
func CliqueExpansion(h *hypergraph.Hypergraph) *Graph {
	var edges [][2]int32
	for f := 0; f < h.NumEdges(); f++ {
		m := h.Vertices(f)
		for i := 0; i < len(m); i++ {
			for j := i + 1; j < len(m); j++ {
				edges = append(edges, [2]int32{m[i], m[j]})
			}
		}
	}
	return MustBuild(h.NumVertices(), edges)
}

// StarExpansion returns the protein-protein interaction graph in which
// every complex is replaced by a star: the complex's bait protein is
// connected to every other member.  baitOf[f] gives the bait vertex of
// hyperedge f; a value of -1 selects the member with the highest
// hypergraph degree (a deterministic stand-in when the bait is
// unknown).  The returned graph shares vertex IDs with h.
func StarExpansion(h *hypergraph.Hypergraph, baitOf []int) *Graph {
	var edges [][2]int32
	for f := 0; f < h.NumEdges(); f++ {
		m := h.Vertices(f)
		if len(m) < 2 {
			continue
		}
		bait := -1
		if baitOf != nil {
			bait = baitOf[f]
		}
		if bait < 0 {
			// Deterministic default: highest-degree member, ties by ID.
			best := -1
			for _, v := range m {
				if best < 0 || h.VertexDegree(int(v)) > h.VertexDegree(best) {
					best = int(v)
				}
			}
			bait = best
		}
		for _, v := range m {
			if int(v) != bait {
				edges = append(edges, [2]int32{int32(bait), v})
			}
		}
	}
	return MustBuild(h.NumVertices(), edges)
}

// IntersectionGraph returns the complex intersection graph: one vertex
// per hyperedge of h, with an edge joining two complexes that share at
// least one protein.  weights[i] is the number of shared proteins for
// the i-th returned edge (the edge weighting the paper describes).
// Proteins are not represented at all — the information loss the paper
// criticizes.
func IntersectionGraph(h *hypergraph.Hypergraph) (g *Graph, edges [][2]int32, weights []int) {
	ne := h.NumEdges()
	stamp := make([]int32, ne)
	count := make([]int, ne)
	for i := range stamp {
		stamp[i] = -1
	}
	var touched []int32
	for f := 0; f < ne; f++ {
		touched = touched[:0]
		for _, v := range h.Vertices(f) {
			for _, g2 := range h.Edges(int(v)) {
				if int(g2) <= f { // emit each pair once, from the lower side
					continue
				}
				if stamp[g2] != int32(f) {
					stamp[g2] = int32(f)
					count[g2] = 0
					touched = append(touched, g2)
				}
				count[g2]++
			}
		}
		for _, g2 := range touched {
			edges = append(edges, [2]int32{int32(f), g2})
			weights = append(weights, count[g2])
		}
	}
	return MustBuild(ne, edges), edges, weights
}

// Bipartite returns the bipartite graph B(H) = (X, Y, E): vertices
// 0..|V|-1 are the hypergraph's vertices, vertices |V|..|V|+|F|-1 are
// its hyperedges, and each pin becomes an edge.  Distances in the
// hypergraph's alternating-path metric are bipartite distances halved.
func Bipartite(h *hypergraph.Hypergraph) *Graph {
	nv := h.NumVertices()
	edges := make([][2]int32, 0, h.NumPins())
	for f := 0; f < h.NumEdges(); f++ {
		fn := int32(nv + f)
		for _, v := range h.Vertices(f) {
			edges = append(edges, [2]int32{v, fn})
		}
	}
	return MustBuild(nv+h.NumEdges(), edges)
}
