// Package hypergraph implements the hypergraph model of Ramadan,
// Tarafdar and Pothen (IPPS 2004) for protein-complex data: vertices are
// proteins, hyperedges are complexes, and a hyperedge may contain an
// arbitrary number of vertices.
//
// A Hypergraph is an immutable, compactly stored incidence structure.
// Both directions of the incidence relation are stored in CSR
// (compressed sparse row) form: for every vertex the sorted list of
// hyperedges containing it, and for every hyperedge the sorted list of
// vertices it contains.  This is the O(|E|) representation the paper
// argues for (a complex with n members costs O(n), not the O(n²) of a
// clique expansion), where |E| denotes the number of pins, i.e. the sum
// of hyperedge cardinalities.
//
// Construction goes through a Builder, or FromEdgeSets for rows of
// vertex IDs; both share one CSR assembly.  Analysis algorithms live in
// the sibling packages core (k-cores), cover (vertex covers), and stats
// (network statistics).
package hypergraph

import (
	"fmt"
	"sort"
)

// Hypergraph is an immutable hypergraph H = (V, F).  Vertices and
// hyperedges are identified by dense integer IDs in [0, NumVertices())
// and [0, NumEdges()); optional string names map back and forth.
type Hypergraph struct {
	vertexNames []string
	edgeNames   []string
	vertexIndex map[string]int
	edgeIndex   map[string]int

	// CSR incidence, vertex side: edges containing vertex v are
	// vAdj[vOff[v]:vOff[v+1]], sorted ascending.
	vOff []int
	vAdj []int32

	// CSR incidence, edge side: vertices of hyperedge f are
	// eAdj[eOff[f]:eOff[f+1]], sorted ascending.
	eOff []int
	eAdj []int32
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.vOff) - 1 }

// NumEdges returns |F|, the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.eOff) - 1 }

// NumPins returns |E| = Σ_f d(f) = Σ_v d(v), the size of the incidence
// relation.  This is the space needed to represent the hypergraph.
func (h *Hypergraph) NumPins() int { return len(h.eAdj) }

// VertexDegree returns d(v), the number of hyperedges containing v.
func (h *Hypergraph) VertexDegree(v int) int { return h.vOff[v+1] - h.vOff[v] }

// EdgeDegree returns d(f), the number of vertices in hyperedge f.
func (h *Hypergraph) EdgeDegree(f int) int { return h.eOff[f+1] - h.eOff[f] }

// Edges returns the sorted hyperedge IDs containing vertex v.  The
// returned slice aliases internal storage and must not be modified.
func (h *Hypergraph) Edges(v int) []int32 { return h.vAdj[h.vOff[v]:h.vOff[v+1]] }

// Vertices returns the sorted vertex IDs of hyperedge f.  The returned
// slice aliases internal storage and must not be modified.
func (h *Hypergraph) Vertices(f int) []int32 { return h.eAdj[h.eOff[f]:h.eOff[f+1]] }

// VertexName returns the name of vertex v ("" if unnamed).
func (h *Hypergraph) VertexName(v int) string {
	if h.vertexNames == nil {
		return ""
	}
	return h.vertexNames[v]
}

// EdgeName returns the name of hyperedge f ("" if unnamed).
func (h *Hypergraph) EdgeName(f int) string {
	if h.edgeNames == nil {
		return ""
	}
	return h.edgeNames[f]
}

// VertexID returns the ID of the vertex with the given name, or (0,
// false) if no such vertex exists.
func (h *Hypergraph) VertexID(name string) (int, bool) {
	v, ok := h.vertexIndex[name]
	return v, ok
}

// EdgeID returns the ID of the hyperedge with the given name, or (0,
// false) if no such hyperedge exists.
func (h *Hypergraph) EdgeID(name string) (int, bool) {
	f, ok := h.edgeIndex[name]
	return f, ok
}

// MaxVertexDegree returns Δ_V, the maximum vertex degree (0 for an
// empty vertex set).
func (h *Hypergraph) MaxVertexDegree() int {
	max := 0
	for v := 0; v < h.NumVertices(); v++ {
		if d := h.VertexDegree(v); d > max {
			max = d
		}
	}
	return max
}

// MaxEdgeDegree returns Δ_F, the maximum hyperedge cardinality (0 for
// an empty edge set).
func (h *Hypergraph) MaxEdgeDegree() int {
	max := 0
	for f := 0; f < h.NumEdges(); f++ {
		if d := h.EdgeDegree(f); d > max {
			max = d
		}
	}
	return max
}

// EdgeContains reports whether hyperedge f contains vertex v, by binary
// search on the sorted member list.
func (h *Hypergraph) EdgeContains(f, v int) bool {
	m := h.Vertices(f)
	i := sort.Search(len(m), func(i int) bool { return m[i] >= int32(v) })
	return i < len(m) && m[i] == int32(v)
}

// Degree2Edge returns d₂(f): the number of other hyperedges with which
// f shares at least one vertex (the number of hyperedges reachable from
// f by a path of length two in the bipartite graph B(H)).
func (h *Hypergraph) Degree2Edge(f int) int {
	seen := make(map[int32]struct{})
	for _, v := range h.Vertices(f) {
		for _, g := range h.Edges(int(v)) {
			if g != int32(f) {
				seen[g] = struct{}{}
			}
		}
	}
	return len(seen)
}

// MaxDegree2Edge returns Δ₂,F, the maximum d₂(f) over all hyperedges.
// It runs in O(Σ_v d(v)²) time.
func (h *Hypergraph) MaxDegree2Edge() int {
	// Count distinct overlapping edges per edge with a stamped scratch
	// array instead of per-edge maps: one pass over each edge's
	// two-hop neighborhood.
	stamp := make([]int32, h.NumEdges())
	for i := range stamp {
		stamp[i] = -1
	}
	max := 0
	for f := 0; f < h.NumEdges(); f++ {
		cnt := 0
		for _, v := range h.Vertices(f) {
			for _, g := range h.Edges(int(v)) {
				if g != int32(f) && stamp[g] != int32(f) {
					stamp[g] = int32(f)
					cnt++
				}
			}
		}
		if cnt > max {
			max = cnt
		}
	}
	return max
}

// Degree2Vertex returns d₂(v): the number of distinct vertices other
// than v that share a hyperedge with v (vertices reachable by a
// length-two path in B(H)).
func (h *Hypergraph) Degree2Vertex(v int) int {
	seen := make(map[int32]struct{})
	for _, f := range h.Edges(v) {
		for _, w := range h.Vertices(int(f)) {
			if w != int32(v) {
				seen[w] = struct{}{}
			}
		}
	}
	return len(seen)
}

// VertexDegrees returns a fresh slice of all vertex degrees.
func (h *Hypergraph) VertexDegrees() []int {
	d := make([]int, h.NumVertices())
	for v := range d {
		d[v] = h.VertexDegree(v)
	}
	return d
}

// EdgeDegrees returns a fresh slice of all hyperedge cardinalities.
func (h *Hypergraph) EdgeDegrees() []int {
	d := make([]int, h.NumEdges())
	for f := range d {
		d[f] = h.EdgeDegree(f)
	}
	return d
}

// EdgeSet returns the members of hyperedge f as a fresh int slice
// (convenience for callers that want to own the memory).
func (h *Hypergraph) EdgeSet(f int) []int {
	m := h.Vertices(f)
	out := make([]int, len(m))
	for i, v := range m {
		out[i] = int(v)
	}
	return out
}

// RawCSR exposes the four CSR incidence arrays backing h: vertex-side
// offsets and adjacency (edges containing v are vAdj[vOff[v]:vOff[v+1]])
// and edge-side offsets and adjacency (vertices of f are
// eAdj[eOff[f]:eOff[f+1]]).  The returned slices alias internal storage
// and must not be modified; the accessor exists so flat-array kernel
// substrates (internal/csr) can be built without copying the pins.
func (h *Hypergraph) RawCSR() (vOff []int, vAdj []int32, eOff []int, eAdj []int32) {
	return h.vOff, h.vAdj, h.eOff, h.eAdj
}

// String returns a short diagnostic description.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{|V|=%d |F|=%d |E|=%d}", h.NumVertices(), h.NumEdges(), h.NumPins())
}

// Clone returns a deep copy of h.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{
		vOff: append([]int(nil), h.vOff...),
		vAdj: append([]int32(nil), h.vAdj...),
		eOff: append([]int(nil), h.eOff...),
		eAdj: append([]int32(nil), h.eAdj...),
	}
	if h.vertexNames != nil {
		c.vertexNames = append([]string(nil), h.vertexNames...)
		c.vertexIndex = make(map[string]int, len(h.vertexIndex))
		for k, v := range h.vertexIndex {
			c.vertexIndex[k] = v
		}
	}
	if h.edgeNames != nil {
		c.edgeNames = append([]string(nil), h.edgeNames...)
		c.edgeIndex = make(map[string]int, len(h.edgeIndex))
		for k, v := range h.edgeIndex {
			c.edgeIndex[k] = v
		}
	}
	return c
}

// Validate checks the structural invariants of the incidence arrays:
// CSR offsets monotone, member lists sorted and duplicate-free, and the
// two incidence directions mutually consistent.  It returns nil if the
// hypergraph is well formed.  It is used by tests and by readers of
// external files.  Both offset arrays are checked in full before any
// row is sliced, so arrays handed to FromCSRArrays yield an error,
// never a panic.
func (h *Hypergraph) Validate() error {
	nv, ne := h.NumVertices(), h.NumEdges()
	if h.vOff[0] != 0 || h.eOff[0] != 0 {
		return fmt.Errorf("hypergraph: offset arrays must start at 0")
	}
	if h.vOff[nv] != len(h.vAdj) {
		return fmt.Errorf("hypergraph: vertex offsets end at %d, want %d", h.vOff[nv], len(h.vAdj))
	}
	if h.eOff[ne] != len(h.eAdj) {
		return fmt.Errorf("hypergraph: edge offsets end at %d, want %d", h.eOff[ne], len(h.eAdj))
	}
	if len(h.vAdj) != len(h.eAdj) {
		return fmt.Errorf("hypergraph: pin counts disagree: %d vertex-side vs %d edge-side", len(h.vAdj), len(h.eAdj))
	}
	for v := 0; v < nv; v++ {
		if h.vOff[v+1] < h.vOff[v] {
			return fmt.Errorf("hypergraph: vertex %d has negative degree", v)
		}
	}
	for f := 0; f < ne; f++ {
		if h.eOff[f+1] < h.eOff[f] {
			return fmt.Errorf("hypergraph: hyperedge %d has negative cardinality", f)
		}
	}
	for v := 0; v < nv; v++ {
		adj := h.Edges(v)
		for i, f := range adj {
			if f < 0 || int(f) >= ne {
				return fmt.Errorf("hypergraph: vertex %d lists out-of-range hyperedge %d", v, f)
			}
			if i > 0 && adj[i-1] >= f {
				return fmt.Errorf("hypergraph: vertex %d adjacency not strictly sorted", v)
			}
			if !h.EdgeContains(int(f), v) {
				return fmt.Errorf("hypergraph: vertex %d lists hyperedge %d, which does not contain it", v, f)
			}
		}
	}
	for f := 0; f < ne; f++ {
		m := h.Vertices(f)
		for i, v := range m {
			if v < 0 || int(v) >= nv {
				return fmt.Errorf("hypergraph: hyperedge %d lists out-of-range vertex %d", f, v)
			}
			if i > 0 && m[i-1] >= v {
				return fmt.Errorf("hypergraph: hyperedge %d member list not strictly sorted", f)
			}
		}
	}
	return nil
}
