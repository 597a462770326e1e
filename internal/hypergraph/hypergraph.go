// Package hypergraph implements the hypergraph model of Ramadan,
// Tarafdar and Pothen (IPPS 2004) for protein-complex data: vertices are
// proteins, hyperedges are complexes, and a hyperedge may contain an
// arbitrary number of vertices.
//
// A Hypergraph is an immutable, compactly stored incidence structure.
// Both directions of the incidence relation are stored once, as one
// csr.CSR (compressed sparse row, int32 offsets and pins): for every
// vertex the sorted list of hyperedges containing it, and for every
// hyperedge the sorted list of vertices it contains.  This is the
// O(|E|) representation the paper argues for (a complex with n members
// costs O(n), not the O(n²) of a clique expansion), where |E| denotes
// the number of pins, i.e. the sum of hyperedge cardinalities.  Next to
// it a Hypergraph keeps a name table for each named side; a side built
// from IDs has none, and its labels ("v12", "f3") stand in for names
// in lookups and output.  CSR hands the arrays to the flat-array
// kernels as they are, and FromCSR wraps arrays someone else holds (a
// mapped store file) without copying them.
//
// Construction goes through a Builder, or FromEdgeSets for rows of
// vertex IDs; both share one CSR assembly, which returns ErrPinSpace
// rather than build pins past the int32 index space.  Analysis
// algorithms live in the sibling packages core (k-cores), cover
// (vertex covers), and stats (network statistics).
package hypergraph

import (
	"fmt"
	"sort"
	"strconv"

	"hyperplex/internal/csr"
)

// Hypergraph is an immutable hypergraph H = (V, F).  Vertices and
// hyperedges are identified by dense integer IDs in [0, NumVertices())
// and [0, NumEdges()); optional string names map back and forth.
type Hypergraph struct {
	// One name table per side, nil for an unnamed side.
	vNames, eNames *names

	// The incidence arrays: edges containing vertex v are
	// c.VAdj[c.VOff[v]:c.VOff[v+1]] and vertices of hyperedge f are
	// c.EAdj[c.EOff[f]:c.EOff[f+1]], both sorted ascending.
	c csr.CSR
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.c.VOff) - 1 }

// NumEdges returns |F|, the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.c.EOff) - 1 }

// NumPins returns |E| = Σ_f d(f) = Σ_v d(v), the size of the incidence
// relation.  This is the space needed to represent the hypergraph.
func (h *Hypergraph) NumPins() int { return len(h.c.EAdj) }

// VertexDegree returns d(v), the number of hyperedges containing v.
func (h *Hypergraph) VertexDegree(v int) int { return int(h.c.VOff[v+1] - h.c.VOff[v]) }

// EdgeDegree returns d(f), the number of vertices in hyperedge f.
func (h *Hypergraph) EdgeDegree(f int) int { return int(h.c.EOff[f+1] - h.c.EOff[f]) }

// Edges returns the sorted hyperedge IDs containing vertex v.  The
// returned slice aliases internal storage and must not be modified.
func (h *Hypergraph) Edges(v int) []int32 { return h.c.VAdj[h.c.VOff[v]:h.c.VOff[v+1]] }

// Vertices returns the sorted vertex IDs of hyperedge f.  The returned
// slice aliases internal storage and must not be modified.
func (h *Hypergraph) Vertices(f int) []int32 { return h.c.EAdj[h.c.EOff[f]:h.c.EOff[f+1]] }

// CSR returns h's incidence arrays, aliased: the flat-array kernels
// read them in place, and nothing is copied or converted.  The arrays
// must not be modified.
func (h *Hypergraph) CSR() *csr.CSR { return &h.c }

// VertexName returns the name of vertex v ("" if unnamed), a
// substring of the side's name table.
func (h *Hypergraph) VertexName(v int) string { return h.vNames.get(v) }

// EdgeName returns the name of hyperedge f ("" if unnamed), a
// substring of the side's name table.
func (h *Hypergraph) EdgeName(f int) string { return h.eNames.get(f) }

// VertexLabel returns the name of vertex v, or "v" and its ID for an
// unnamed vertex: the label every listing, text and JSON file prints.
func (h *Hypergraph) VertexLabel(v int) string { return label(h.VertexName(v), 'v', v) }

// EdgeLabel returns the name of hyperedge f, or "f" and its ID for an
// unnamed hyperedge.
func (h *Hypergraph) EdgeLabel(f int) string { return label(h.EdgeName(f), 'f', f) }

// label returns name, or prefix and id when name is empty.
func label(name string, prefix byte, id int) string {
	if name != "" {
		return name
	}
	var b [24]byte
	return string(strconv.AppendInt(append(b[:0], prefix), int64(id), 10))
}

// VertexID returns the ID of the vertex with the given name, or (0,
// false) if no such vertex exists.  On an unnamed side the names are
// the labels VertexLabel prints.  It is safe for concurrent use.
func (h *Hypergraph) VertexID(name string) (int, bool) {
	if h.vNames == nil {
		return labelID(name, 'v', h.NumVertices())
	}
	return h.vNames.id(name)
}

// EdgeID returns the ID of the hyperedge with the given name, or (0,
// false) if no such hyperedge exists; the empty name finds none.  On
// an unnamed side the names are the labels EdgeLabel prints.  It is
// safe for concurrent use.
func (h *Hypergraph) EdgeID(name string) (int, bool) {
	if h.eNames == nil {
		return labelID(name, 'f', h.NumEdges())
	}
	return h.eNames.id(name)
}

// labelID inverts label on an unnamed side of n entries: it returns
// the ID below n whose label is s, which is prefix and the ID in
// canonical decimal, without sign or leading zero.
func labelID(s string, prefix byte, n int) (int, bool) {
	if s == "" {
		return 0, false
	}
	id, err := strconv.Atoi(s[1:])
	if err != nil || id < 0 || id >= n || label("", prefix, id) != s {
		return 0, false
	}
	return id, true
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

// MaxDegree2Edge returns Δ₂,F, the maximum over all hyperedges f of
// d₂(f), the number of other hyperedges sharing a vertex with f.  It
// runs in O(Σ_v d(v)²) time.
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

// String returns a short diagnostic description.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{|V|=%d |F|=%d |E|=%d}", h.NumVertices(), h.NumEdges(), h.NumPins())
}
