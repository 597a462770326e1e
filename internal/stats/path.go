package stats

import (
	"slices"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// HyperPath is an alternating vertex–hyperedge path as defined in §1.3
// of the paper: v₁, f₁, v₂, f₂, …, v_k, where consecutive vertices
// share the hyperedge between them, no vertex or hyperedge repeats,
// and the length is the number of hyperedges.
type HyperPath struct {
	Vertices []int // k vertices, endpoints included
	Edges    []int // k-1 hyperedges
}

// Len returns the path length (number of hyperedges).
func (p HyperPath) Len() int { return len(p.Edges) }

// Format renders the path with names from h.
func (p HyperPath) Format(h *hypergraph.Hypergraph) string {
	s := ""
	for i, v := range p.Vertices {
		if i > 0 {
			s += " -[" + h.EdgeLabel(p.Edges[i-1]) + "]- "
		}
		s += h.VertexLabel(v)
	}
	return s
}

// ShortestPath returns a shortest alternating path between two
// vertices, or ok = false if they are disconnected.  A vertex's
// distance to itself is the empty path.  A BFS over the incidence
// arrays, alternating vertex and hyperedge steps, guarantees
// minimality in the number of hyperedges.
func ShortestPath(h *hypergraph.Hypergraph, from, to int) (HyperPath, bool) {
	if from == to {
		return HyperPath{Vertices: []int{from}}, true
	}
	c := h.CSR()
	// vPar[v] is the hyperedge the BFS reached vertex v through, and
	// ePar[f] the vertex it reached hyperedge f from; -1 is unvisited.
	vPar := make([]int32, h.NumVertices())
	ePar := make([]int32, h.NumEdges())
	for i := range vPar {
		vPar[i] = -1
	}
	for i := range ePar {
		ePar[i] = -1
	}
	src := csr.MustInt32(from)
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, f := range c.VertexEdges(u) {
			if ePar[f] >= 0 {
				continue
			}
			ePar[f] = u
			for _, w := range c.EdgeVertices(f) {
				if w == src || vPar[w] >= 0 {
					continue
				}
				vPar[w] = f
				if int(w) == to {
					return tracePath(vPar, ePar, src, w), true
				}
				queue = append(queue, w)
			}
		}
	}
	return HyperPath{}, false
}

// tracePath walks the BFS parents back from to and returns the path
// from src.
func tracePath(vPar, ePar []int32, src, to int32) HyperPath {
	var p HyperPath
	for v := to; v != src; v = ePar[vPar[v]] {
		p.Vertices = append(p.Vertices, int(v))
		p.Edges = append(p.Edges, int(vPar[v]))
	}
	p.Vertices = append(p.Vertices, int(src))
	slices.Reverse(p.Vertices)
	slices.Reverse(p.Edges)
	return p
}
