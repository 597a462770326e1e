package hypergraph

import (
	"sort"

	"hyperplex/internal/csr"
)

// Sub returns the sub-hypergraph induced by keeping exactly the
// vertices with keepV[v] == true and the hyperedges with keepF[f] ==
// true.  A kept hyperedge retains only its kept member vertices (it may
// become empty).  Names carry over, and an unnamed side stays unnamed.
// IDs are renumbered densely, in their old order; the returned maps
// give old-ID → new-ID for vertices and edges (absent entries were
// dropped).
func (h *Hypergraph) Sub(keepV, keepF []bool) (*Hypergraph, map[int]int, map[int]int) {
	nv := h.NumVertices()
	vMap := make(map[int]int)
	newV := make([]int32, nv)
	n := 0
	for v := range newV {
		newV[v] = -1
		if keepV[v] {
			newV[v] = int32(n)
			vMap[v] = n
			n++
		}
	}
	fMap := make(map[int]int)
	eOff := []int32{0}
	var eAdj []int32
	for f := 0; f < h.NumEdges(); f++ {
		if !keepF[f] {
			continue
		}
		// newV is increasing over the kept vertices, so the row stays
		// sorted.
		for _, v := range h.Vertices(f) {
			if w := newV[v]; w >= 0 {
				eAdj = append(eAdj, w)
			}
		}
		fMap[f] = len(eOff) - 1
		eOff = append(eOff, csr.MustInt32(len(eAdj)))
	}
	return assemble(h.vNames.subset(keepV), h.eNames.subset(keepF), n, eOff, eAdj), vMap, fMap
}

// SortedEdgeIDsByDegree returns hyperedge IDs sorted by ascending
// cardinality (ties by ID); useful for deterministic processing orders.
func (h *Hypergraph) SortedEdgeIDsByDegree() []int {
	ids := make([]int, h.NumEdges())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := h.EdgeDegree(ids[i]), h.EdgeDegree(ids[j])
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	return ids
}
