package core

import (
	"context"

	"hyperplex/internal/csr"
	"hyperplex/internal/hypergraph"
)

// CSRDecompose computes the full core decomposition of h on the
// flat-array substrate: the hypergraph is viewed as a csr.CSR (cheap —
// the pins are aliased) and peeled by the bucket-queue kernel
// (csr.Decompose), which replaces the level-by-level scans and
// map-backed overlap bookkeeping of Decompose with int32 arrays and a
// single scratch arena.
//
// The result is the same decomposition as Decompose: identical vertex
// coreness, edge coreness levels and MaxK, with equal induced
// member-set families per level (of duplicate equal-set hyperedges,
// Decompose may keep another copy).  The kernel peels in the rounds of
// ShardedDecompose and the distributed DistPeeler, so it equals those
// engines byte for byte, edge coreness included; the differential
// tests pin all of them against each other.
func CSRDecompose(h *hypergraph.Hypergraph) *Decomposition {
	d, err := CSRDecomposeCtx(context.Background(), h)
	if err != nil {
		// Only reachable through an armed failpoint: a background
		// context cannot be cancelled and carries no budget.
		panic(err)
	}
	return d
}

// CSRDecomposeCtx is CSRDecompose honoring cancellation, deadline and
// any run.Budget attached to ctx, checked every bounded number of peel
// operations (the csr.build and csr.peel checkpoint sites).  On
// cancellation or budget exhaustion it returns (nil, err).
func CSRDecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph) (*Decomposition, error) {
	fd, err := csr.DecomposeCtx(ctx, csr.FromH(h))
	if err != nil {
		return nil, err
	}
	d := &Decomposition{
		VertexCoreness: make([]int, len(fd.VertexCoreness)),
		EdgeCoreness:   make([]int, len(fd.EdgeCoreness)),
		MaxK:           fd.MaxK,
	}
	for v, c := range fd.VertexCoreness {
		d.VertexCoreness[v] = int(c)
	}
	for f, c := range fd.EdgeCoreness {
		d.EdgeCoreness[f] = int(c)
	}
	return d, nil
}
