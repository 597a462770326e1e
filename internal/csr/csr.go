// Package csr is the flat-array kernel substrate: an immutable
// compressed-sparse-row view of a hypergraph with both incidence
// directions as int32 index arrays, plus optional ID maps back to the
// builder-layer hypergraph.Hypergraph it was carved from.
//
// The split of responsibilities is deliberate: hypergraph.Hypergraph
// remains the builder/IO layer (names, validation, file formats), while
// the hot kernels — the containment detector in this package, run by
// the one peel kernel in internal/core, and the flat-array greedy cover
// of internal/cover — run over a CSR whose adjacency is four dense
// slices.
// FromH is O(|V| + |F|) (the pin arrays are aliased, not copied), so
// converting at a kernel boundary is cheap; ToH rebuilds a full
// Hypergraph for callers that want to keep analyzing a materialized
// block.
package csr

import (
	"fmt"

	"hyperplex/internal/hypergraph"
)

// CSR is an immutable compressed-sparse-row hypergraph: hyperedges
// containing vertex v are VAdj[VOff[v]:VOff[v+1]], vertices of
// hyperedge f are EAdj[EOff[f]:EOff[f+1]], both sorted ascending.
// All IDs are dense int32 local to this CSR; when the CSR covers part
// of a larger hypergraph (a store file can carry the maps), VertexID
// and EdgeID map local IDs back to the original ones.  Kernels must
// treat every slice as read-only.
type CSR struct {
	VOff []int32 // len NumVertices()+1
	VAdj []int32 // vertex→edge pins
	EOff []int32 // len NumEdges()+1
	EAdj []int32 // edge→vertex pins

	// VertexID and EdgeID, when non-nil, give the original ID of each
	// local vertex and hyperedge (both strictly ascending).  Nil means
	// the identity map: the CSR covers its source hypergraph whole.
	VertexID []int32
	EdgeID   []int32
}

// NumVertices returns |V|.
func (c *CSR) NumVertices() int { return len(c.VOff) - 1 }

// NumEdges returns |F|.
func (c *CSR) NumEdges() int { return len(c.EOff) - 1 }

// NumPins returns |E| = Σ_f d(f), the size of the incidence relation.
func (c *CSR) NumPins() int { return len(c.EAdj) }

// VertexEdges returns the sorted hyperedges containing vertex v,
// aliasing internal storage.
func (c *CSR) VertexEdges(v int32) []int32 { return c.VAdj[c.VOff[v]:c.VOff[v+1]] }

// EdgeVertices returns the sorted vertices of hyperedge f, aliasing
// internal storage.
func (c *CSR) EdgeVertices(f int32) []int32 { return c.EAdj[c.EOff[f]:c.EOff[f+1]] }

// VertexDegree returns d(v).
func (c *CSR) VertexDegree(v int32) int32 { return c.VOff[v+1] - c.VOff[v] }

// EdgeDegree returns d(f).
func (c *CSR) EdgeDegree(f int32) int32 { return c.EOff[f+1] - c.EOff[f] }

// FromH builds the CSR view of h.  The adjacency arrays are aliased
// from h (hypergraph.Hypergraph is itself immutable), so the
// conversion costs O(|V| + |F|) for the offset narrowing only.  The ID
// maps are nil: the view covers h whole and local IDs equal h's IDs.
func FromH(h *hypergraph.Hypergraph) *CSR {
	vOff, vAdj, eOff, eAdj := h.RawCSR()
	c := &CSR{
		VOff: narrow(vOff),
		VAdj: vAdj,
		EOff: narrow(eOff),
		EAdj: eAdj,
	}
	return c
}

// MustInt32 narrows a size-derived int to int32, panicking when the
// value does not fit.  The CSR index space is int32 by design; every
// narrowing of a length, count or offset must go through this helper
// (or an explicit bound check) so that a pathological input fails
// loudly instead of silently truncating into a corrupt index array.
// The int32narrow analyzer enforces the convention.
func MustInt32(x int) int32 {
	if x < 0 || x > 1<<31-1 {
		panic(fmt.Sprintf("csr: size %d overflows the int32 index space", x))
	}
	return int32(x)
}

// narrow converts an int offset array to int32, failing loudly via
// MustInt32 if a pin count ever exceeds the int32 index space (offsets
// are monotone, so checking each entry checks the total).
func narrow(off []int) []int32 {
	out := make([]int32, len(off))
	for i, x := range off {
		out[i] = MustInt32(x)
	}
	return out
}

// ToH rebuilds a builder-layer Hypergraph from the CSR, with generated
// names ("v0", "f0", ... over local IDs).  Structure — member sets,
// degree sequences, pin count — round-trips exactly; names do not,
// since the CSR never carried them.
func (c *CSR) ToH() (*hypergraph.Hypergraph, error) {
	edges := make([][]int32, c.NumEdges())
	for f := range edges {
		edges[f] = c.EdgeVertices(int32(f))
	}
	return hypergraph.FromEdgeSets(c.NumVertices(), edges)
}

// Validate checks the structural invariants: offsets start at zero,
// are monotone and end at the pin count, both directions describe the
// same pin set, rows are strictly sorted, and the optional ID maps are
// sized and ordered consistently.  Kernels assume a valid CSR; the
// check is for tests, for code assembling CSRs by hand and for the
// store's Open path.  Both offset arrays are checked in full before
// any row is sliced, so arbitrary arrays yield an error, never a
// panic; the cross-direction check is one linear cursor walk.
func (c *CSR) Validate() error {
	nv, ne := c.NumVertices(), c.NumEdges()
	if nv < 0 || ne < 0 {
		return fmt.Errorf("csr: offset arrays must have at least one entry")
	}
	if c.VOff[0] != 0 || c.EOff[0] != 0 {
		return fmt.Errorf("csr: offset arrays must start at 0")
	}
	if int(c.VOff[nv]) != len(c.VAdj) {
		return fmt.Errorf("csr: vertex offsets end at %d, want %d", c.VOff[nv], len(c.VAdj))
	}
	if int(c.EOff[ne]) != len(c.EAdj) {
		return fmt.Errorf("csr: edge offsets end at %d, want %d", c.EOff[ne], len(c.EAdj))
	}
	if len(c.VAdj) != len(c.EAdj) {
		return fmt.Errorf("csr: pin counts disagree: %d vertex-side vs %d edge-side", len(c.VAdj), len(c.EAdj))
	}
	for v := 0; v < nv; v++ {
		if c.VOff[v+1] < c.VOff[v] {
			return fmt.Errorf("csr: vertex %d has negative degree", v)
		}
	}
	for f := 0; f < ne; f++ {
		if c.EOff[f+1] < c.EOff[f] {
			return fmt.Errorf("csr: hyperedge %d has negative cardinality", f)
		}
	}
	for v := 0; v < nv; v++ {
		row := c.VertexEdges(int32(v))
		for i, f := range row {
			if f < 0 || int(f) >= ne {
				return fmt.Errorf("csr: vertex %d lists out-of-range hyperedge %d", v, f)
			}
			if i > 0 && row[i-1] >= f {
				return fmt.Errorf("csr: vertex %d adjacency not strictly sorted", v)
			}
		}
	}
	for f := 0; f < ne; f++ {
		row := c.EdgeVertices(int32(f))
		for i, v := range row {
			if v < 0 || int(v) >= nv {
				return fmt.Errorf("csr: hyperedge %d lists out-of-range vertex %d", f, v)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("csr: hyperedge %d member list not strictly sorted", f)
			}
		}
	}
	// Walk the hyperedges in ID order: each member v must be the next
	// unmatched entry of v's row.  Both sides are strictly sorted and
	// hold equal pin counts, so every pin matching means both describe
	// the same pin set.
	cursor := make([]int32, nv)
	copy(cursor, c.VOff[:nv])
	for f := int32(0); int(f) < ne; f++ {
		for _, v := range c.EdgeVertices(f) {
			k := cursor[v]
			switch {
			case k < c.VOff[v+1] && c.VAdj[k] < f:
				return fmt.Errorf("csr: vertex %d lists hyperedge %d, which does not contain it", v, c.VAdj[k])
			case k == c.VOff[v+1] || c.VAdj[k] > f:
				return fmt.Errorf("csr: hyperedge %d lists vertex %d, which does not list it", f, v)
			}
			cursor[v]++
		}
	}
	if err := validateIDMap("vertex", c.VertexID, nv); err != nil {
		return err
	}
	if err := validateIDMap("hyperedge", c.EdgeID, ne); err != nil {
		return err
	}
	return nil
}

func validateIDMap(kind string, ids []int32, n int) error {
	if ids == nil {
		return nil
	}
	if len(ids) != n {
		return fmt.Errorf("csr: %s ID map has %d entries, want %d", kind, len(ids), n)
	}
	for i, id := range ids {
		if id < 0 {
			return fmt.Errorf("csr: %s ID map entry %d is negative", kind, i)
		}
		if i > 0 && ids[i-1] >= id {
			return fmt.Errorf("csr: %s ID map not strictly ascending at %d", kind, i)
		}
	}
	return nil
}
