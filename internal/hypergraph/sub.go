package hypergraph

import "sort"

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
	eOff := []int{0}
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
		eOff = append(eOff, len(eAdj))
	}
	return assemble(h.vNames.subset(keepV), h.eNames.subset(keepF), n, eOff, eAdj), vMap, fMap
}

// SubVertices returns the sub-hypergraph induced by a vertex subset:
// every hyperedge is restricted to the kept vertices, and hyperedges
// that become empty are dropped.
func (h *Hypergraph) SubVertices(keepV []bool) (*Hypergraph, map[int]int, map[int]int) {
	keepF := make([]bool, h.NumEdges())
	for f := 0; f < h.NumEdges(); f++ {
		for _, v := range h.Vertices(f) {
			if keepV[v] {
				keepF[f] = true
				break
			}
		}
	}
	return h.Sub(keepV, keepF)
}

// Dual returns the dual hypergraph H* in which the roles of vertices
// and hyperedges are exchanged: H* has one vertex per hyperedge of H
// and one hyperedge per vertex of H, with v* containing f* exactly when
// f contained v.  Names are carried across the exchange.
func (h *Hypergraph) Dual() *Hypergraph {
	b := NewBuilder()
	for f := 0; f < h.NumEdges(); f++ {
		name := h.EdgeName(f)
		if name == "" {
			name = dualName("f", f)
		}
		b.AddVertex(name)
	}
	for v := 0; v < h.NumVertices(); v++ {
		name := h.VertexName(v)
		if name == "" {
			name = dualName("v", v)
		}
		b.AddEdgeIDs(name, h.Edges(v))
	}
	d, err := b.Build()
	if err != nil {
		//hyperplexvet:ignore nopanic vertex and edge names were unique in h, so the exchanged names stay unique
		panic("hypergraph: Dual: " + err.Error())
	}
	return d
}

func dualName(prefix string, id int) string {
	// Small allocation-free itoa for the common path.
	if id == 0 {
		return prefix + "0"
	}
	var buf [20]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	return prefix + string(buf[i:])
}

// Reduce returns the reduced hypergraph: every hyperedge that is
// contained in another hyperedge is removed (including empty hyperedges
// and duplicates, of which the lowest-ID copy is kept), along with any
// vertices left in no hyperedge.  In a reduced hypergraph every
// hyperedge is maximal, the precondition of the k-core definition in
// the paper.  The returned maps give old→new IDs of survivors.
func (h *Hypergraph) Reduce() (*Hypergraph, map[int]int, map[int]int) {
	nonMax := NonMaximalEdges(h)
	keepF := make([]bool, h.NumEdges())
	for f := range keepF {
		keepF[f] = !nonMax[f] && h.EdgeDegree(f) > 0
	}
	keepV := make([]bool, h.NumVertices())
	for f := 0; f < h.NumEdges(); f++ {
		if keepF[f] {
			for _, v := range h.Vertices(f) {
				keepV[v] = true
			}
		}
	}
	return h.Sub(keepV, keepF)
}

// IsReduced reports whether no hyperedge is contained in another and no
// hyperedge is empty.
func (h *Hypergraph) IsReduced() bool {
	nonMax := NonMaximalEdges(h)
	for f := 0; f < h.NumEdges(); f++ {
		if nonMax[f] || h.EdgeDegree(f) == 0 {
			return false
		}
	}
	return true
}

// NonMaximalEdges returns a boolean slice marking every hyperedge f for
// which there exists a hyperedge g with f ⊆ g and f ≠ g, or with f and
// g equal as sets and g of lower ID (the tie-break that keeps exactly
// one copy of duplicated hyperedges).  Empty hyperedges are not marked;
// callers decide their fate.
//
// The implementation uses the paper's overlap-counting idea rather than
// pairwise set comparison: f is contained in g exactly when
// |f ∩ g| = d(f), and the overlaps are accumulated by a single pass
// over the vertex adjacency lists in O(Σ_v d(v)²) time.
func NonMaximalEdges(h *Hypergraph) []bool {
	ne := h.NumEdges()
	nonMax := make([]bool, ne)

	// For each edge f, walk the edges sharing a vertex with f and count
	// the shared vertices with a stamped scratch array.
	stamp := make([]int32, ne)
	count := make([]int, ne)
	for i := range stamp {
		stamp[i] = -1
	}
	touched := make([]int32, 0, 64)
	for f := 0; f < ne; f++ {
		df := h.EdgeDegree(f)
		if df == 0 {
			continue
		}
		touched = touched[:0]
		for _, v := range h.Vertices(f) {
			for _, g := range h.Edges(int(v)) {
				if g == int32(f) {
					continue
				}
				if stamp[g] != int32(f) {
					stamp[g] = int32(f)
					count[g] = 0
					touched = append(touched, g)
				}
				count[g]++
			}
		}
		for _, g := range touched {
			if count[g] != df {
				continue
			}
			dg := h.EdgeDegree(int(g))
			if dg > df || (dg == df && int(g) < f) {
				nonMax[f] = true
				break
			}
		}
	}
	return nonMax
}

// EdgesEqual reports whether two hyperedges have identical member sets.
func (h *Hypergraph) EdgesEqual(f, g int) bool {
	a, b := h.Vertices(f), h.Vertices(g)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Overlap returns |f ∩ g|, computed by merging the two sorted member
// lists in O(d(f)+d(g)).
func (h *Hypergraph) Overlap(f, g int) int {
	a, b := h.Vertices(f), h.Vertices(g)
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
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
