package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Builder accumulates hyperedges and produces an immutable Hypergraph.
// The zero value is ready to use.  Vertices may be added explicitly
// (AddVertex) to include isolated vertices, or implicitly by naming
// them in a hyperedge.
type Builder struct {
	vertexNames []string
	vertexIndex map[string]int
	edges       []edgeUnderConstruction
}

type edgeUnderConstruction struct {
	name    string
	members []int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{vertexIndex: make(map[string]int)}
}

// AddVertex adds (or looks up) a vertex by name and returns its ID.
func (b *Builder) AddVertex(name string) int {
	if b.vertexIndex == nil {
		b.vertexIndex = make(map[string]int)
	}
	if v, ok := b.vertexIndex[name]; ok {
		return v
	}
	v := len(b.vertexNames)
	b.vertexNames = append(b.vertexNames, name)
	b.vertexIndex[name] = v
	return v
}

// AddEdge adds a hyperedge with the given name over the named member
// vertices, creating vertices as needed, and returns the hyperedge ID.
// Duplicate member names within one call are collapsed.
func (b *Builder) AddEdge(name string, members ...string) int {
	ids := make([]int32, 0, len(members))
	for _, m := range members {
		ids = append(ids, int32(b.AddVertex(m)))
	}
	return b.AddEdgeIDs(name, ids)
}

// AddEdgeIDs adds a hyperedge over existing vertex IDs and returns the
// hyperedge ID.  Duplicate IDs are collapsed; out-of-range IDs panic.
func (b *Builder) AddEdgeIDs(name string, members []int32) int {
	ms := append([]int32(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	uniq := ms[:0]
	for i, v := range ms {
		if v < 0 || int(v) >= len(b.vertexNames) {
			//hyperplexvet:ignore nopanic documented builder precondition: members must name vertices already added
			panic(fmt.Sprintf("hypergraph: AddEdgeIDs member %d out of range [0,%d)", v, len(b.vertexNames)))
		}
		if i == 0 || ms[i-1] != v {
			uniq = append(uniq, v)
		}
	}
	f := len(b.edges)
	b.edges = append(b.edges, edgeUnderConstruction{name: name, members: uniq})
	return f
}

// NumVertices reports the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.vertexNames) }

// NumEdges reports the number of hyperedges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable Hypergraph.  Hyperedge names must be
// unique when non-empty; vertex names are unique by construction.
func (b *Builder) Build() (*Hypergraph, error) {
	ne := len(b.edges)
	edgeNames := make([]string, ne)
	eOff := make([]int, ne+1)
	for f, e := range b.edges {
		edgeNames[f] = e.name
		eOff[f+1] = eOff[f] + len(e.members)
	}
	eAdj := make([]int32, 0, eOff[ne])
	for _, e := range b.edges {
		eAdj = append(eAdj, e.members...)
	}
	return assemble(append([]string(nil), b.vertexNames...), eOff, eAdj, edgeNames)
}

// assemble is the one CSR assembly behind Build and FromEdgeSets.  It
// takes ownership of the edge-side rows — the members of hyperedge f
// are eAdj[eOff[f]:eOff[f+1]], sorted, duplicate-free and in
// [0, len(vertexNames)) — derives the vertex side by a counting-sort
// transpose and indexes both name lists.  Vertex names must be unique;
// a repeated non-empty hyperedge name is an error.
func assemble(vertexNames []string, eOff []int, eAdj []int32, edgeNames []string) (*Hypergraph, error) {
	nv, ne := len(vertexNames), len(eOff)-1
	h := &Hypergraph{
		vertexNames: vertexNames,
		vertexIndex: make(map[string]int, nv),
		edgeNames:   edgeNames,
		edgeIndex:   make(map[string]int, ne),
		vOff:        make([]int, nv+1),
		vAdj:        make([]int32, len(eAdj)),
		eOff:        eOff,
		eAdj:        eAdj,
	}
	for v, name := range vertexNames {
		h.vertexIndex[name] = v
	}
	for f, name := range edgeNames {
		if name == "" {
			continue
		}
		if prev, dup := h.edgeIndex[name]; dup {
			return nil, fmt.Errorf("hypergraph: duplicate hyperedge name %q (edges %d and %d)", name, prev, f)
		}
		h.edgeIndex[name] = f
	}

	// Vertex-side CSR by counting sort over pins; since hyperedges are
	// visited in increasing f order, each vertex's list comes out
	// sorted.
	for _, v := range eAdj {
		h.vOff[v+1]++
	}
	for v := 0; v < nv; v++ {
		h.vOff[v+1] += h.vOff[v]
	}
	cursor := append([]int(nil), h.vOff[:nv]...)
	//hyperplexvet:ignore budgettick bounded: one transpose pass over pins the Ctx readers already charged line by line; the assembly itself carries no context
	for f := 0; f < ne; f++ {
		for _, v := range h.Vertices(f) {
			h.vAdj[cursor[v]] = int32(f)
			cursor[v]++
		}
	}
	return h, nil
}

// MustBuild is Build but panics on error; convenient in tests and
// generators whose inputs are known valid.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// FromEdgeSets builds a hypergraph over nv vertices directly from a
// slice of member-ID sets, with the same result as adding each set
// through a Builder: members may come unsorted or repeated, sets may be
// empty, and nv ≤ 0 gives no vertices.  Vertices are named "v0", "v1",
// ... and edges "f0", "f1", ... so that exported files remain readable.
// A member outside [0, nv) is an error.  The sets are copied once into
// one flat row array, where each row is sorted and compacted in place;
// the caller's slices are never modified.
func FromEdgeSets(nv int, edges [][]int32) (*Hypergraph, error) {
	pins := 0
	for f, members := range edges {
		for _, v := range members {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("hypergraph: edge %d member %d out of range [0,%d)", f, v, nv)
			}
		}
		pins += len(members)
	}
	eOff := make([]int, len(edges)+1)
	eAdj := make([]int32, pins)
	n := 0
	for f, members := range edges {
		row := eAdj[n : n+len(members)]
		copy(row, members)
		slices.Sort(row)
		n += len(slices.Compact(row))
		eOff[f+1] = n
	}
	return assemble(seqNames('v', nv), eOff, eAdj[:n:n], seqNames('f', len(edges)))
}

// seqNames returns the names prefix0 … prefix(n-1), sliced from one
// backing string (nil for n ≤ 0).
func seqNames(prefix byte, n int) []string {
	if n <= 0 {
		return nil
	}
	var b strings.Builder
	b.Grow(n * (1 + len(strconv.Itoa(n-1))))
	var num [20]byte
	for i := 0; i < n; i++ {
		b.WriteByte(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	all := b.String()
	names := make([]string, n)
	start, width, next := 0, 2, 10 // "v0" … "v9" are two bytes long
	for i := range names {
		if i == next {
			width++
			next *= 10
		}
		names[i] = all[start : start+width]
		start += width
	}
	return names
}
