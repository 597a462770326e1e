package stats

import (
	"hyperplex/internal/graph"
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
// distance to itself is the empty path.  BFS over the bipartite graph
// B(H) guarantees minimality in the number of hyperedges.
func ShortestPath(h *hypergraph.Hypergraph, from, to int) (HyperPath, bool) {
	if from == to {
		return HyperPath{Vertices: []int{from}}, true
	}
	bip := graph.Bipartite(h)
	n := bip.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[from] = -1
	queue := []int32{int32(from)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range bip.Neighbors(int(u)) {
			if parent[w] != -2 {
				continue
			}
			parent[w] = u
			if int(w) == to {
				return tracePath(h, parent, to), true
			}
			queue = append(queue, w)
		}
	}
	return HyperPath{}, false
}

func tracePath(h *hypergraph.Hypergraph, parent []int32, to int) HyperPath {
	nv := h.NumVertices()
	var rev []int
	for at := to; at != -1; at = int(parent[at]) {
		rev = append(rev, at)
	}
	p := HyperPath{}
	for i := len(rev) - 1; i >= 0; i-- {
		id := rev[i]
		if id < nv {
			p.Vertices = append(p.Vertices, id)
		} else {
			p.Edges = append(p.Edges, id-nv)
		}
	}
	return p
}
