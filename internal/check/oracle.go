package check

import (
	"fmt"
	"math"
	"math/bits"

	"hyperplex/internal/hypergraph"
)

// KCoreOracle computes the k-core of h directly from the definition by
// round-based fixpoint iteration: repeatedly delete every hyperedge
// whose alive part is empty or contained in another alive hyperedge
// (keeping the lowest-ID copy of equal hyperedges), and every vertex
// whose alive degree is below k (below 1 for k ≤ 0, since every core is
// a reduced hypergraph without isolated vertices).  It shares no code
// with core.KCore.
func KCoreOracle(h *hypergraph.Hypergraph, k int) (vIn, eIn []bool) {
	return coreFixpoint(h, k, 1)
}

// BiCoreOracle computes the (k, l)-core of h by the same fixpoint
// iteration with the additional rule that hyperedges whose alive part
// has fewer than l vertices are deleted.
func BiCoreOracle(h *hypergraph.Hypergraph, k, l int) (vIn, eIn []bool) {
	return coreFixpoint(h, k, l)
}

func coreFixpoint(h *hypergraph.Hypergraph, k, l int) (vIn, eIn []bool) {
	nv, ne := h.NumVertices(), h.NumEdges()
	vIn = make([]bool, nv)
	eIn = make([]bool, ne)
	for v := range vIn {
		vIn[v] = true
	}
	for f := range eIn {
		eIn[f] = true
	}
	if l < 1 {
		l = 1
	}
	minDeg := k
	if minDeg < 1 {
		minDeg = 1 // even the 0-core drops isolated vertices
	}
	for changed := true; changed; {
		changed = false
		// Alive member lists are stable for the whole edge pass because
		// vertices are only deleted afterwards.
		alive := aliveMembers(h, vIn, eIn)
		for f := 0; f < ne; f++ {
			if !eIn[f] {
				continue
			}
			if len(alive[f]) < l || containedInAlive(h, f, alive, eIn) {
				eIn[f] = false
				changed = true
			}
		}
		for v := 0; v < nv; v++ {
			if !vIn[v] {
				continue
			}
			d := 0
			for _, f := range h.Edges(v) {
				if eIn[f] {
					d++
				}
			}
			if d < minDeg {
				vIn[v] = false
				changed = true
			}
		}
	}
	return vIn, eIn
}

// aliveMembers lists the alive vertices of every alive hyperedge, in
// ascending order; a dead hyperedge's list is empty.
func aliveMembers(h *hypergraph.Hypergraph, vIn, eIn []bool) [][]int32 {
	alive := make([][]int32, h.NumEdges())
	for f := range alive {
		if !eIn[f] {
			continue
		}
		for _, v := range h.Vertices(f) {
			if vIn[v] {
				alive[f] = append(alive[f], v)
			}
		}
	}
	return alive
}

// containedInAlive reports whether the alive part of f (non-empty) is a
// subset of the alive part of some other alive hyperedge g, with the
// tie-break that keeps exactly one copy of equal hyperedges: f dies
// when |g| > |f|, or |g| = |f| and g has the smaller ID.  Candidates g
// are restricted to hyperedges sharing f's first alive vertex, which
// any superset must contain.
func containedInAlive(h *hypergraph.Hypergraph, f int, alive [][]int32, eIn []bool) bool {
	mf := alive[f]
	for _, g32 := range h.Edges(int(mf[0])) {
		g := int(g32)
		if g == f || !eIn[g] {
			continue
		}
		mg := alive[g]
		if len(mg) < len(mf) || (len(mg) == len(mf) && g > f) {
			continue
		}
		if subsetSorted(mf, mg) {
			return true
		}
	}
	return false
}

// subsetSorted reports a ⊆ b for ascending-sorted slices.
func subsetSorted(a, b []int32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// ShortestPathNaive returns the alternating-path distance between two
// vertices (number of hyperedges on a shortest path, 0 for from == to)
// by plain breadth-first search over the incidence lists, independent
// of internal/graph and internal/stats.  ok is false when the vertices
// are disconnected.
func ShortestPathNaive(h *hypergraph.Hypergraph, from, to int) (dist int, ok bool) {
	if from == to {
		return 0, true
	}
	nv := h.NumVertices()
	d := make([]int, nv)
	for i := range d {
		d[i] = -1
	}
	eSeen := make([]bool, h.NumEdges())
	d[from] = 0
	queue := []int{from}
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
				if int(w) == to {
					return d[w], true
				}
				queue = append(queue, int(w))
			}
		}
	}
	return 0, false
}

// MulticoverOptBrute computes the exact minimum-weight multicover by
// enumerating every vertex subset; weights may be nil for unit weights
// and req may be nil for plain covering.  It refuses hypergraphs with
// more than 20 vertices, and reports an error when some hyperedge's
// requirement exceeds its cardinality (the instance is infeasible).
func MulticoverOptBrute(h *hypergraph.Hypergraph, weights []float64, req []int) (float64, []bool, error) {
	nv, ne := h.NumVertices(), h.NumEdges()
	if nv > 20 {
		return 0, nil, fmt.Errorf("check: brute-force multicover limited to 20 vertices, got %d", nv)
	}
	if weights == nil {
		weights = make([]float64, nv)
		for i := range weights {
			weights[i] = 1
		}
	}
	need := make([]int, ne)
	masks := make([]uint64, ne)
	for f := 0; f < ne; f++ {
		r := 1
		if req != nil {
			r = req[f]
		}
		if r > h.EdgeDegree(f) {
			return 0, nil, fmt.Errorf("check: hyperedge %d has %d vertices but requirement %d", f, h.EdgeDegree(f), r)
		}
		need[f] = r
		for _, v := range h.Vertices(f) {
			masks[f] |= 1 << uint(v)
		}
	}
	best := math.Inf(1)
	bestMask := uint64(0)
	for mask := uint64(0); mask < 1<<uint(nv); mask++ {
		w := 0.0
		for m := mask; m != 0; m &= m - 1 {
			w += weights[bits.TrailingZeros64(m)]
		}
		if w >= best {
			continue
		}
		feasible := true
		for f := 0; f < ne; f++ {
			if bits.OnesCount64(masks[f]&mask) < need[f] {
				feasible = false
				break
			}
		}
		if feasible {
			best = w
			bestMask = mask
		}
	}
	in := make([]bool, nv)
	for v := 0; v < nv; v++ {
		in[v] = bestMask&(1<<uint(v)) != 0
	}
	return best, in, nil
}
