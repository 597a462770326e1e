package check

import (
	"slices"

	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// This file is the paper's k-core algorithm (Ramadan, Tarafdar and
// Pothen, Fig. 4), kept as the reference every peel engine is checked
// against.  It detects non-maximal hyperedges by maintaining the
// pairwise overlap counts |f ∩ g| over the alive vertices — f is
// contained in g exactly when its alive degree equals its overlap with
// g — and re-tests a hyperedge after every vertex deletion that
// shrinks it.  The production peeler (csr.Decompose) instead tests
// containment once per round with a witness filter, so the two share
// no containment code.  Of two hyperedges that shrink to the same
// member set, the two may keep different copies: compare their cores
// with SameResult, not by hyperedge ID.

// OverlapTable holds ov(f, g) = |f ∩ g| over the currently alive
// vertices, for every pair of initially overlapping hyperedges.  Row f
// lists the hyperedges overlapping f in ascending ID order (nbr) with
// the current counts alongside (cnt).  The rows are fixed when the
// table is built; DropEdge marks a deleted hyperedge and
// ShrinkPairwise decrements counts, so counts of pairs involving a
// dropped hyperedge go stale and every reader skips dropped rows.
type OverlapTable struct {
	off     []int32 // row of f is nbr[off[f]:off[f+1]]
	nbr     []int32
	cnt     []int32
	dropped []bool
}

// NewOverlapTable builds the table for h with every vertex and
// hyperedge alive.  Listing, for every member v of f, the other
// hyperedges holding v lists each g exactly |f ∩ g| times, so the
// sorted list's runs are f's row and its counts.
func NewOverlapTable(h *hypergraph.Hypergraph) *OverlapTable {
	ne := h.NumEdges()
	o := &OverlapTable{off: make([]int32, ne+1), dropped: make([]bool, ne)}
	var list []int32
	for f := 0; f < ne; f++ {
		list = list[:0]
		for _, v := range h.Vertices(f) {
			for _, g := range h.Edges(int(v)) {
				if int(g) != f {
					list = append(list, g)
				}
			}
		}
		slices.Sort(list)
		for i := 0; i < len(list); {
			j := i
			for j < len(list) && list[j] == list[i] {
				j++
			}
			o.nbr = append(o.nbr, list[i])
			o.cnt = append(o.cnt, int32(j-i))
			i = j
		}
		o.off[f+1] = csr.MustInt32(len(o.nbr))
	}
	return o
}

// Overlap returns the current |f ∩ g| (0 when the hyperedges do not
// overlap among alive vertices, or when either has been dropped).
func (o *OverlapTable) Overlap(f, g int) int {
	if o.dropped[f] || o.dropped[g] {
		return 0
	}
	if i, ok := o.slot(int32(f), int32(g)); ok {
		return int(o.cnt[i])
	}
	return 0
}

// NonMaximal reports whether alive hyperedge f is currently contained
// in another alive hyperedge: some g with |f ∩ g| = d(f) and either
// d(g) > d(f) (strict containment) or d(g) = d(f) with g < f (the
// tie-break that keeps exactly one copy of equal hyperedges).  eDeg
// holds the current alive degrees of the hyperedges.
func (o *OverlapTable) NonMaximal(f int, eDeg []int32) bool {
	df := eDeg[f]
	if df == 0 {
		return false
	}
	for i := o.off[f]; i < o.off[f+1]; i++ {
		g := o.nbr[i]
		if o.cnt[i] != df || o.dropped[g] {
			continue
		}
		if dg := eDeg[g]; dg > df || (dg == df && int(g) < f) {
			return true
		}
	}
	return false
}

// DropEdge removes hyperedge f from the table.  Deleting a hyperedge
// never makes another one non-maximal, so no re-test follows.
func (o *OverlapTable) DropEdge(f int) {
	o.dropped[f] = true
}

// ShrinkPairwise updates the table after the deletion of one vertex
// held by exactly the alive hyperedges in live: every pairwise overlap
// among them decreases by one.  Each pair shares the deleted vertex, so
// it is present in both rows.
func (o *OverlapTable) ShrinkPairwise(live []int32) {
	for i, f := range live {
		for _, g := range live[i+1:] {
			a, _ := o.slot(f, g)
			b, _ := o.slot(g, f)
			o.cnt[a]--
			o.cnt[b]--
		}
	}
}

// slot finds g in f's row.
func (o *OverlapTable) slot(f, g int32) (int, bool) {
	lo := int(o.off[f])
	i, ok := slices.BinarySearch(o.nbr[lo:o.off[f+1]], g)
	return lo + i, ok
}

// overlapPeeler is the mutable state of the paper's peel: alive flags,
// current degrees, the overlap table and the queue of vertices below
// the threshold.
type overlapPeeler struct {
	h       *hypergraph.Hypergraph
	k       int   // current threshold
	l       int32 // minimum hyperedge size
	vAlive  []bool
	eAlive  []bool
	vDeg    []int32
	eDeg    []int32
	ov      *OverlapTable
	queue   []int32
	inQueue []bool
	vCore   []int
	eCore   []int
	aliveV  int
	aliveE  int
}

// newOverlapPeeler builds the initial state and performs the initial
// reduction: every hyperedge that is empty, contained in another
// (keeping the lowest-ID copy of duplicates) or smaller than l is
// deleted, since every core — the 0-core included — is reduced.  The
// tests are collected before any deletion, so all of them read the
// original overlap table.
func newOverlapPeeler(h *hypergraph.Hypergraph, l int) *overlapPeeler {
	nv, ne := h.NumVertices(), h.NumEdges()
	p := &overlapPeeler{
		h:       h,
		l:       int32(max(l, 1)),
		vAlive:  make([]bool, nv),
		eAlive:  make([]bool, ne),
		vDeg:    make([]int32, nv),
		eDeg:    make([]int32, ne),
		ov:      NewOverlapTable(h),
		inQueue: make([]bool, nv),
		vCore:   make([]int, nv),
		eCore:   make([]int, ne),
		aliveV:  nv,
		aliveE:  ne,
	}
	for v := range p.vAlive {
		p.vAlive[v] = true
		p.vDeg[v] = int32(h.VertexDegree(v))
	}
	for f := range p.eAlive {
		p.eAlive[f] = true
		p.eDeg[f] = int32(h.EdgeDegree(f))
	}
	var drop []int
	for f := 0; f < ne; f++ {
		if p.eDeg[f] < p.l || p.ov.NonMaximal(f, p.eDeg) {
			drop = append(drop, f)
		}
	}
	for _, f := range drop {
		p.deleteEdge(f)
	}
	return p
}

// deleteEdge removes alive hyperedge f at coreness k-1: its alive
// members lose one degree and are queued if they drop below k.
func (p *overlapPeeler) deleteEdge(f int) {
	p.eAlive[f] = false
	p.eCore[f] = max(p.k-1, 0)
	p.aliveE--
	for _, w := range p.h.Vertices(f) {
		if !p.vAlive[w] {
			continue
		}
		p.vDeg[w]--
		if p.vDeg[w] < int32(p.k) && !p.inQueue[w] {
			p.inQueue[w] = true
			p.queue = append(p.queue, w)
		}
	}
	p.ov.DropEdge(f)
}

// deleteVertex removes alive vertex v at coreness k-1.  First every
// alive hyperedge holding v shrinks and the overlaps among them drop;
// then each shrunk hyperedge is re-tested and dies when it falls below
// the minimum size or stops being maximal.  The two phases keep the
// table consistent while several hyperedges shrink at once.
func (p *overlapPeeler) deleteVertex(v int) {
	p.vAlive[v] = false
	p.vCore[v] = max(p.k-1, 0)
	p.aliveV--
	var live []int32
	for _, f := range p.h.Edges(v) {
		if p.eAlive[f] {
			live = append(live, f)
			p.eDeg[f]--
		}
	}
	p.ov.ShrinkPairwise(live)
	for _, f := range live {
		if p.eAlive[f] && (p.eDeg[f] < p.l || p.ov.NonMaximal(int(f), p.eDeg)) {
			p.deleteEdge(int(f))
		}
	}
}

// peelTo raises the threshold to k and deletes alive vertices of
// degree < k, cascading, until the fixpoint.
func (p *overlapPeeler) peelTo(k int) {
	p.k = k
	for v, alive := range p.vAlive {
		if alive && p.vDeg[v] < int32(k) && !p.inQueue[v] {
			p.inQueue[v] = true
			p.queue = append(p.queue, int32(v))
		}
	}
	for len(p.queue) > 0 {
		v := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.inQueue[v] = false
		if p.vAlive[v] {
			p.deleteVertex(int(v))
		}
	}
}

// OverlapCore computes the (k, l)-core of h with the paper's
// overlap-count peel: the k-core for l ≤ 1, and for k ≤ 0 the 0-core
// (the reduced hypergraph without isolated vertices), labeled K = 0.
func OverlapCore(h *hypergraph.Hypergraph, k, l int) *core.Result {
	p := newOverlapPeeler(h, l)
	k = max(k, 0)
	p.peelTo(max(k, 1))
	return &core.Result{
		K:           k,
		VertexIn:    p.vAlive,
		EdgeIn:      p.eAlive,
		NumVertices: p.aliveV,
		NumEdges:    p.aliveE,
	}
}

// OverlapDecompose computes the full core decomposition of h with the
// paper's peel, raising the threshold one level at a time on one
// peeling state.
func OverlapDecompose(h *hypergraph.Hypergraph) *core.Decomposition {
	p := newOverlapPeeler(h, 1)
	maxK := 0
	for k := 1; p.aliveV > 0; k++ {
		p.peelTo(k)
		if p.aliveV > 0 {
			maxK = k
		}
	}
	return &core.Decomposition{VertexCoreness: p.vCore, EdgeCoreness: p.eCore, MaxK: maxK}
}
