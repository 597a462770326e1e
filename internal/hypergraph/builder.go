package hypergraph

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"

	"hyperplex/internal/csr"
)

// ErrPinSpace reports a hypergraph whose pins would pass the int32
// index space of its CSR.
var ErrPinSpace = errors.New("hypergraph: pins overflow the int32 index space")

// maxPins is the most pins a hypergraph may hold, the bound of its
// int32 offsets.  Tests lower it.
var maxPins = math.MaxInt32

// Builder accumulates hyperedges and produces an immutable Hypergraph.
// The zero value is ready to use.  Vertices may be added explicitly
// (AddVertex) to include isolated vertices, or implicitly by naming
// them in a hyperedge.  Each side's names are interned once into a
// growing name table with its hash index, and the member rows are kept
// in one flat array, each sorted and compacted as its hyperedge is
// added: the CSR's edge side, ready for Build.
type Builder struct {
	vertices, edges arena
	// The members of hyperedge f are pins[eOff[f]:eOff[f+1]]; eOff is
	// nil until the first hyperedge.  ReadTextRowsCtx drops each row
	// and its offset once it has handed the row out.
	pins []int32
	eOff []int32
	// npins counts the pins of every row added so far, which maxPins
	// bounds.
	npins int
	// err is the first fault met while adding, a repeated hyperedge
	// name, names past the int32 offset bound or pins past maxPins;
	// Build reports it.
	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddVertex adds (or looks up) a vertex by name and returns its ID.  A
// name that would carry the vertex names past the int32 offset bound
// adds no vertex: AddVertex returns -1 and Build reports ErrNameSpace.
func (b *Builder) AddVertex(name string) int {
	return addVertex(b, name, maphash.String(nameSeed, name))
}

// addVertex is AddVertex for a name given as a string or as bytes,
// whose maphash is h.  The bytes are copied into the name table only
// when they add a vertex.
func addVertex[K string | []byte](b *Builder, name K, h uint64) int {
	slot, v := lookup(&b.vertices, name, h, false)
	if v >= 0 {
		return v
	}
	v, err := push(&b.vertices, name)
	if err != nil {
		b.fail(err)
		return -1
	}
	b.vertices.idx[slot] = int32(v + 1)
	return v
}

// fail records err unless an earlier fault is recorded.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddEdge adds a hyperedge with the given name over the named member
// vertices, creating vertices as needed, and returns the hyperedge ID.
// Duplicate member names within one call are collapsed.
func (b *Builder) AddEdge(name string, members ...string) int {
	start := len(b.pins)
	for _, m := range members {
		b.pins = append(b.pins, int32(b.AddVertex(m)))
	}
	return endEdge(b, name, maphash.String(nameSeed, name), start)
}

// addEdgeBytes is AddEdge over a name and members given as bytes,
// which it does not retain: each is hashed and looked up in place, and
// its bytes are copied only when it adds a name.
func (b *Builder) addEdgeBytes(name []byte, members [][]byte) int {
	start := len(b.pins)
	b.pins = room(b.pins, len(members))
	//hyperplexvet:ignore budgettick bounded: one pass over the members of one line, which the scanner charged with the line
	for _, m := range members {
		b.pins = append(b.pins, int32(addVertex(b, m, maphash.Bytes(nameSeed, m))))
	}
	return endEdge(b, name, maphash.Bytes(nameSeed, name), start)
}

// AddEdgeIDs adds a hyperedge over existing vertex IDs and returns the
// hyperedge ID.  Duplicate IDs are collapsed; out-of-range IDs panic,
// before the builder changes.
func (b *Builder) AddEdgeIDs(name string, members []int32) int {
	nv := b.NumVertices()
	for _, v := range members {
		if v < 0 || int(v) >= nv {
			//hyperplexvet:ignore nopanic documented builder precondition: members must name vertices already added
			panic(fmt.Sprintf("hypergraph: AddEdgeIDs member %d out of range [0,%d)", v, nv))
		}
	}
	start := len(b.pins)
	b.pins = append(b.pins, members...)
	return endEdge(b, name, maphash.String(nameSeed, name), start)
}

// endEdge sorts and compacts the member row appended since start and
// records it as a hyperedge with the given name, whose maphash is h,
// returning its ID.  The running pin count, not the offsets, carries
// the maxPins check, so it holds when ReadTextRowsCtx drops the
// offsets: a row that carries the pins past maxPins is recorded as the
// builder's fault.
func endEdge[K string | []byte](b *Builder, name K, h uint64, start int) int {
	row := b.pins[start:]
	slices.Sort(row)
	n := len(slices.Compact(row))
	b.pins = b.pins[:start+n]
	b.npins += n
	if b.npins > maxPins {
		b.fail(fmt.Errorf("%w: %d pins", ErrPinSpace, b.npins))
	}
	if b.eOff == nil {
		b.eOff = []int32{0}
	}
	b.eOff = append(b.eOff, int32(b.npins))
	f := b.NumEdges()
	addEdgeName(b, name, h)
	return f
}

// addEdgeName interns the name of the hyperedge just added, whose
// maphash is h.  An empty name is stored but not indexed; a repeated
// one is stored, left unindexed and recorded as the builder's fault.
func addEdgeName[K string | []byte](b *Builder, name K, h uint64) {
	slot, prev := -1, -1
	if len(name) > 0 {
		slot, prev = lookup(&b.edges, name, h, true)
	}
	f, err := push(&b.edges, name)
	switch {
	case err != nil:
		b.fail(err)
	case prev >= 0:
		b.fail(fmt.Errorf("hypergraph: duplicate hyperedge name %q (edges %d and %d)", name, prev, f))
	case slot >= 0:
		b.edges.idx[slot] = int32(f + 1)
	}
}

// footprint returns the bytes the builder holds: both name tables with
// their indexes, the row array and the offsets.
func (b *Builder) footprint() int64 {
	return int64(b.vertices.buf.Cap()+b.edges.buf.Cap()) +
		4*int64(cap(b.vertices.ends)+len(b.vertices.idx)+cap(b.edges.ends)+len(b.edges.idx)+cap(b.pins)+cap(b.eOff))
}

// NumVertices reports the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.vertices.ends) }

// NumEdges reports the number of hyperedges added so far: every one
// stores its name, empty or not.
func (b *Builder) NumEdges() int { return len(b.edges.ends) }

// Build produces the immutable Hypergraph.  Hyperedge names must be
// unique when non-empty; vertex names are unique by construction.  The
// first repeated hyperedge name met while adding is reported here.  The
// hypergraph gets copies of the builder's rows and name tables, their
// indexes included, so the builder may go on adding without touching
// it.
func (b *Builder) Build() (*Hypergraph, error) { return b.build(true) }

// build is Build.  Without copies the hypergraph takes the builder's
// rows and name tables themselves, and the builder must not be used
// again: ReadTextCtx drops its builder right after.
func (b *Builder) build(copies bool) (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	eOff, eAdj := b.eOff, b.pins[:len(b.pins):len(b.pins)]
	if eOff == nil {
		eOff = []int32{0}
	}
	if copies {
		eOff = append([]int32(nil), eOff...)
		eAdj = make([]int32, len(b.pins))
		copy(eAdj, b.pins)
	}
	return assemble(b.vertices.freeze(false, copies), b.edges.freeze(true, copies), b.NumVertices(), eOff, eAdj), nil
}

// assemble is the one CSR assembly behind Build and FromRows.
// It takes ownership of the name tables (nil for an unnamed side) and
// of the edge-side rows — the members of hyperedge f are
// eAdj[eOff[f]:eOff[f+1]], sorted, duplicate-free and in [0, nv) — and
// derives the vertex side by a counting-sort transpose.  Pins arrays
// without pins become nil, so every route assembles the same value.
func assemble(vNames, eNames *names, nv int, eOff, eAdj []int32) *Hypergraph {
	if len(eAdj) == 0 {
		eAdj = nil
	}
	ne := len(eOff) - 1
	vOff := make([]int32, nv+1)
	vAdj := make([]int32, len(eAdj))

	// Vertex-side CSR by counting sort over pins.  The prefix sums
	// leave vOff[v] at the end of v's row, and each pin moves it one
	// slot back, so it ends at the row's start; since hyperedges are
	// visited in decreasing f order, each vertex's list comes out
	// sorted.
	for _, v := range eAdj {
		vOff[v]++
	}
	for v := 1; v < nv; v++ {
		vOff[v] += vOff[v-1]
	}
	vOff[nv] = eOff[ne]
	//hyperplexvet:ignore budgettick bounded: one transpose pass over pins the Ctx readers already charged line by line; the assembly itself carries no context
	for f := ne - 1; f >= 0; f-- {
		for _, v := range eAdj[eOff[f]:eOff[f+1]] {
			vOff[v]--
			vAdj[vOff[v]] = int32(f)
		}
	}
	return &Hypergraph{vNames: vNames, eNames: eNames, c: csr.CSR{VOff: vOff, VAdj: vAdj, EOff: eOff, EAdj: eAdj}}
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
// slice of member-ID sets, with the rows adding each set through a
// Builder would give: members may come unsorted or repeated, sets may
// be empty, and nv ≤ 0 gives no vertices.  Both sides stay unnamed:
// VertexLabel and EdgeLabel print "v0", "f0", ..., and VertexID and
// EdgeID find those labels.  A member outside [0, nv) is an error, as
// are pins past maxPins, and sets holding more than math.MaxInt32
// members in all, before repeats collapse.  The sets are copied once
// into one flat row array for FromRows; the caller's slices are never
// modified.
func FromEdgeSets(nv int, edges [][]int32) (*Hypergraph, error) {
	pins := 0
	for _, members := range edges {
		pins += len(members)
	}
	if pins > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d pins", ErrPinSpace, pins)
	}
	eOff := make([]int32, len(edges)+1)
	eAdj := make([]int32, 0, pins)
	for f, members := range edges {
		eAdj = append(eAdj, members...)
		eOff[f+1] = csr.MustInt32(len(eAdj))
	}
	return FromRows(nv, eOff, eAdj)
}

// FromRows builds a hypergraph over nv vertices from flat rows: the
// members of hyperedge f are eAdj[eOff[f]:eOff[f+1]], in any order and
// possibly repeated, with the result FromEdgeSets gives for the same
// rows: both sides unnamed.  It is the one flat entry point into the CSR
// assembly, and it takes ownership of both slices: each row that is not
// already sorted and duplicate-free is sorted in place, the rows are
// compacted leftwards and the offsets rewritten to match, and the
// hypergraph keeps the arrays.  The input is checked in full before
// anything is changed, so untrusted rows (a decoded wire frame) are
// safe: the offsets must start at 0, never decrease and end at
// len(eAdj), and every member must lie in [0, nv).  Pins past maxPins
// after compaction are ErrPinSpace.
func FromRows(nv int, eOff, eAdj []int32) (*Hypergraph, error) {
	if len(eOff) == 0 {
		return nil, errors.New("hypergraph: no row offsets")
	}
	if eOff[0] != 0 {
		return nil, fmt.Errorf("hypergraph: row offsets start at %d, want 0", eOff[0])
	}
	ne := len(eOff) - 1
	for f := 0; f < ne; f++ {
		if eOff[f+1] < eOff[f] {
			return nil, fmt.Errorf("hypergraph: row offsets decrease at %d", f+1)
		}
	}
	if int(eOff[ne]) != len(eAdj) {
		return nil, fmt.Errorf("hypergraph: row offsets end at %d, want the %d pins", eOff[ne], len(eAdj))
	}
	for f := 0; f < ne; f++ {
		for _, v := range eAdj[eOff[f]:eOff[f+1]] {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("hypergraph: edge %d member %d out of range [0,%d)", f, v, nv)
			}
		}
	}
	n, start := 0, int32(0)
	for f := 0; f < ne; f++ {
		end := eOff[f+1]
		row := eAdj[start:end]
		if !strictlyIncreasing(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		if n != int(start) {
			copy(eAdj[n:], row)
		}
		n += len(row)
		if n > maxPins {
			return nil, fmt.Errorf("%w: %d pins", ErrPinSpace, n)
		}
		eOff[f+1], start = int32(n), end
	}
	return assemble(nil, nil, max(nv, 0), eOff, eAdj[:n:n]), nil
}

// strictlyIncreasing reports whether row is sorted and duplicate-free.
func strictlyIncreasing(row []int32) bool {
	for k := 1; k < len(row); k++ {
		if row[k] <= row[k-1] {
			return false
		}
	}
	return true
}
