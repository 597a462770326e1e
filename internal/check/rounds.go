package check

import (
	"hyperplex/internal/core"
	"hyperplex/internal/hypergraph"
)

// RoundDecompose computes the decomposition of h whose level k is the
// (k, l)-core with the round schedule of the production peel (the
// DistPeeler phases of internal/core), written out plainly so that it
// pins that peel byte for byte, edge coreness included.  It shares no
// code with csr.Detector: alive degrees and member lists are recounted
// every round and containment is the fixpoint oracle's sorted-subset
// scan (containedInAlive), with the peel's tie-break.
//
// Round 0 tests every hyperedge.  Each later round, at threshold k,
// first retires the hyperedges the last round found dead (coreness
// k-1), then the frontier — every alive vertex with fewer than k alive
// hyperedges (coreness k-1) — and then tests each alive hyperedge that
// lost a member; the dead ones are retired at the start of the next
// round.  A round with neither a frontier nor a dead hyperedge is the
// fixpoint of level k: every alive vertex has degree ≥ k, so k is
// reached, and the threshold rises.
func RoundDecompose(h *hypergraph.Hypergraph, l int) *core.Decomposition {
	nv, ne := h.NumVertices(), h.NumEdges()
	d := &core.Decomposition{VertexCoreness: make([]int, nv), EdgeCoreness: make([]int, ne)}
	vAlive, eAlive := make([]bool, nv), make([]bool, ne)
	for v := range vAlive {
		vAlive[v] = true
	}
	all := make([]int, ne)
	for f := range eAlive {
		eAlive[f] = true
		all[f] = f
	}
	dying := roundDead(h, vAlive, eAlive, all, l)
	for k := 1; ; k++ {
		for {
			for _, f := range dying {
				eAlive[f] = false
				d.EdgeCoreness[f] = k - 1
			}
			var frontier []int
			alive := 0
			for v := range vAlive {
				if !vAlive[v] {
					continue
				}
				alive++
				deg := 0
				for _, f := range h.Edges(v) {
					if eAlive[f] {
						deg++
					}
				}
				if deg < k {
					frontier = append(frontier, v)
				}
			}
			if len(frontier) == 0 && len(dying) == 0 {
				if alive == 0 {
					return d
				}
				d.MaxK = k
				break
			}
			listed := make([]bool, ne)
			var shrunk []int
			for _, v := range frontier {
				vAlive[v] = false
				d.VertexCoreness[v] = k - 1
				for _, f := range h.Edges(v) {
					if eAlive[f] && !listed[f] {
						listed[f] = true
						shrunk = append(shrunk, int(f))
					}
				}
			}
			dying = roundDead(h, vAlive, eAlive, shrunk, l)
		}
	}
}

// roundDead returns the hyperedges of test that the reduction retires
// against the current state: fewer than max(l, 1) alive members, or an
// alive part contained in another alive hyperedge's.
func roundDead(h *hypergraph.Hypergraph, vAlive, eAlive []bool, test []int, l int) []int {
	alive := aliveMembers(h, vAlive, eAlive)
	var dead []int
	for _, f := range test {
		if len(alive[f]) < max(l, 1) || containedInAlive(h, f, alive, eAlive) {
			dead = append(dead, f)
		}
	}
	return dead
}
