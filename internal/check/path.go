package check

import (
	"fmt"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/stats"
)

// ValidPath verifies that p is a well-formed alternating vertex–
// hyperedge path from from to to (§1.3 of the paper): endpoints match,
// consecutive vertices share the hyperedge between them, and no vertex
// or hyperedge repeats.  It does not check minimality; pair it with
// ShortestPathNaive for that.
func ValidPath(h *hypergraph.Hypergraph, from, to int, p stats.HyperPath) error {
	if len(p.Vertices) == 0 {
		return fmt.Errorf("check: empty path")
	}
	if len(p.Vertices) != len(p.Edges)+1 {
		return fmt.Errorf("check: path has %d vertices and %d hyperedges, want one more vertex than hyperedges",
			len(p.Vertices), len(p.Edges))
	}
	if p.Vertices[0] != from || p.Vertices[len(p.Vertices)-1] != to {
		return fmt.Errorf("check: path runs %d→%d, want %d→%d",
			p.Vertices[0], p.Vertices[len(p.Vertices)-1], from, to)
	}
	seenV := make(map[int]bool, len(p.Vertices))
	for _, v := range p.Vertices {
		if v < 0 || v >= h.NumVertices() {
			return fmt.Errorf("check: path visits out-of-range vertex %d", v)
		}
		if seenV[v] {
			return fmt.Errorf("check: path visits vertex %d twice", v)
		}
		seenV[v] = true
	}
	seenE := make(map[int]bool, len(p.Edges))
	for i, f := range p.Edges {
		if f < 0 || f >= h.NumEdges() {
			return fmt.Errorf("check: path uses out-of-range hyperedge %d", f)
		}
		if seenE[f] {
			return fmt.Errorf("check: path uses hyperedge %d twice", f)
		}
		seenE[f] = true
		if !h.EdgeContains(f, p.Vertices[i]) || !h.EdgeContains(f, p.Vertices[i+1]) {
			return fmt.Errorf("check: hyperedge %d does not join vertices %d and %d",
				f, p.Vertices[i], p.Vertices[i+1])
		}
	}
	return nil
}

// SmallWorldNaive is the oracle of stats.SmallWorldStats: one plain
// breadth-first search per source vertex over the incidence lists,
// independent of internal/graph and of the stats kernel.  Diameter is
// the largest distance found, AvgPathLength the mean over ordered
// pairs of distinct connected vertices, and Pairs counts those pairs
// unordered.
func SmallWorldNaive(h *hypergraph.Hypergraph) stats.SmallWorld {
	nv := h.NumVertices()
	sw := stats.SmallWorld{Sources: nv}
	var sum, pairs int64
	d := make([]int, nv)
	for src := 0; src < nv; src++ {
		for i := range d {
			d[i] = -1
		}
		eSeen := make([]bool, h.NumEdges())
		d[src] = 0
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, f := range h.Edges(u) {
				if eSeen[f] {
					continue
				}
				eSeen[f] = true
				for _, w := range h.Vertices(int(f)) {
					if d[w] >= 0 {
						continue
					}
					d[w] = d[u] + 1
					sw.Diameter = max(sw.Diameter, d[w])
					sum += int64(d[w])
					pairs++
					queue = append(queue, int(w))
				}
			}
		}
	}
	if pairs > 0 {
		sw.AvgPathLength = float64(sum) / float64(pairs)
	}
	sw.Pairs = pairs / 2
	return sw
}
