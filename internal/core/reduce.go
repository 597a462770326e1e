package core

import (
	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// This file is the package's reduction layer: the paper's
// overlap-count machinery for detecting non-maximal hyperedges (a
// hyperedge f is contained in g exactly when |f ∩ g| = d(f)), for the
// peeling kernels that keep their alive state outside flat arrays.
// Two strategies implement the same detection rule:
//
//   - overlapTable maintains the pairwise overlap counts incrementally
//     while vertices and hyperedges are deleted — the data structure of
//     the sequential peeler (hypercore.go, bicore.go), where each
//     deletion updates the table in place.  It is backed by the
//     flat-array csr.Overlaps (offset/neighbor/count int32 rows) rather
//     than per-hyperedge Go maps;
//   - nonMaxScratch re-derives the overlap counts of one hyperedge
//     against a consistent alive snapshot with stamped scratch arrays,
//     reading the alive state through accessors — the strategy of the
//     round-synchronous parallel peeler (parallel.go), whose atomic
//     alive/degree arrays cannot be handed over as flat slices.  It
//     reads the pins through a csr.CSR view.
//
// The flat-array engines — the CSR peeler, the sharded engine
// (sharded.go) and DistPeeler (distshard.go) — instead share the
// witness-filter detector csr.Detector over their own []bool/[]int32
// snapshot arrays.  Every detection applies the shared tie-break for
// equal hyperedges: of two alive hyperedges with identical member
// sets, the lower-ID copy is the maximal one.

// overlapTable maintains ov(f, g) = |f ∩ g| over the currently alive
// vertices, for every pair of initially overlapping hyperedges.  (The
// paper uses balanced trees for these sets; the flat sorted rows of
// csr.Overlaps give the same amortized behaviour with binary searches
// instead of pointer chasing.)  Overlap, NonMaximal, DropEdge and
// ShrinkPairwise are promoted from the embedded table.
type overlapTable struct {
	csr.Overlaps
}

// Fill builds the table for h with every vertex and hyperedge alive,
// in O(Σ_v d(v)²) time.  checkpoint is called with an operation count
// at bounded intervals so the caller can honor cancellation and
// budgets; pass a no-op when the construction is not cancellable.
func (t *overlapTable) Fill(h *hypergraph.Hypergraph, checkpoint func(n int)) {
	t.Build(csr.FromH(h), checkpoint)
}

// nonMaxScratch is the per-worker scratch for snapshot-based
// non-maximality checks: stamped count arrays sized to the hyperedge
// count, so one check runs in O(Σ_{v ∈ f} d(v)) without clearing.
// Each worker of a parallel phase owns its own scratch; the alive
// state read through the accessors must be constant for the duration
// of a check (the synchronized phases of the callers guarantee this).
type nonMaxScratch struct {
	stamp []int32
	count []int32
	seq   int32 // monotone stamp; 0 in stamp means "never stamped"
}

func newNonMaxScratch(ne int) *nonMaxScratch {
	return &nonMaxScratch{
		stamp: make([]int32, ne),
		count: make([]int32, ne),
	}
}

// NonMaximal reports whether hyperedge f, with df > 0 alive vertices,
// is contained in another alive hyperedge of c, reading the alive
// snapshot through the accessors: vAlive reports whether a vertex is
// alive, eAlive whether a hyperedge is alive, and eDeg the current
// alive degree of an alive hyperedge.  The detection counts overlaps
// |f ∩ g| over f's alive two-hop neighborhood and applies the shared
// (degree, ID) tie-break.
func (s *nonMaxScratch) NonMaximal(c *csr.CSR, f, df int32, vAlive, eAlive func(int32) bool, eDeg func(int32) int32) bool {
	if s.seq == 1<<31-1 {
		for j := range s.stamp {
			s.stamp[j] = 0
		}
		s.seq = 0
	}
	s.seq++
	mark := s.seq // unique per check within this scratch
	//hyperplexvet:ignore budgettick bounded: one pass over f's two-hop neighborhood through O(1) accessors; KCoreParallel, the only caller, charges the check per chunk
	for _, v := range c.EdgeVertices(f) {
		if !vAlive(v) {
			continue
		}
		//hyperplexvet:ignore budgettick bounded: inner leg of the same single two-hop pass, charged by the caller
		for _, g := range c.VertexEdges(v) {
			if g == f || !eAlive(g) {
				continue
			}
			if s.stamp[g] != mark {
				s.stamp[g] = mark
				s.count[g] = 0
			}
			s.count[g]++
			if s.count[g] == df {
				dg := eDeg(g)
				if dg > df || (dg == df && g < f) {
					return true
				}
			}
		}
	}
	return false
}
