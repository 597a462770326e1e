package core

import (
	"hyperplex/internal/hypergraph"
)

// KCoreNaive computes the k-core of h by fixpoint iteration with
// explicit set-containment scans: each round removes every alive
// vertex of degree < k, then re-scans all alive hyperedge pairs for
// containment (among alive vertices) and removes the contained ones.
// It is correct directly from the definition and therefore serves as
// the reference implementation in tests, and as the baseline in the
// maximality-detection ablation (the peeler's containment detector
// versus pairwise comparison).
func KCoreNaive(h *hypergraph.Hypergraph, k int) *Result {
	nv, ne := h.NumVertices(), h.NumEdges()
	vAlive := make([]bool, nv)
	eAlive := make([]bool, ne)
	for v := range vAlive {
		vAlive[v] = true
	}
	for f := range eAlive {
		eAlive[f] = true
	}

	aliveDeg := func(f int) int {
		d := 0
		for _, v := range h.Vertices(f) {
			if vAlive[v] {
				d++
			}
		}
		return d
	}
	// containedAlive reports whether the alive part of f is a subset of
	// the alive part of g.
	containedAlive := func(f, g int) bool {
		mg := h.Vertices(g)
		inG := make(map[int32]bool, len(mg))
		for _, v := range mg {
			if vAlive[v] {
				inG[v] = true
			}
		}
		for _, v := range h.Vertices(f) {
			if vAlive[v] && !inG[v] {
				return false
			}
		}
		return true
	}

	minDeg := k
	if minDeg < 0 {
		minDeg = 0
	}
	for changed := true; changed; {
		changed = false
		// Remove non-maximal and empty hyperedges.
		for f := 0; f < ne; f++ {
			if !eAlive[f] {
				continue
			}
			df := aliveDeg(f)
			if df == 0 {
				eAlive[f] = false
				changed = true
				continue
			}
			for g := 0; g < ne; g++ {
				if g == f || !eAlive[g] {
					continue
				}
				dg := aliveDeg(g)
				if dg < df || (dg == df && g > f) {
					continue
				}
				if containedAlive(f, g) {
					eAlive[f] = false
					changed = true
					break
				}
			}
		}
		// Remove low-degree vertices (degree counted over alive edges).
		for v := 0; v < nv; v++ {
			if !vAlive[v] {
				continue
			}
			d := 0
			for _, f := range h.Edges(v) {
				if eAlive[f] {
					d++
				}
			}
			if d < minDeg || (k <= 0 && d == 0) {
				vAlive[v] = false
				changed = true
			}
		}
	}

	r := &Result{K: k, VertexIn: vAlive, EdgeIn: eAlive}
	for _, in := range vAlive {
		if in {
			r.NumVertices++
		}
	}
	for _, in := range eAlive {
		if in {
			r.NumEdges++
		}
	}
	return r
}
