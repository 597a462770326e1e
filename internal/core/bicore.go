package core

import (
	"context"

	"hyperplex/internal/hypergraph"
)

// BiCore computes the (k, l)-core of a hypergraph: the maximal
// sub-hypergraph in which every vertex belongs to at least k
// hyperedges AND every hyperedge contains at least l vertices, with
// the reduction invariant (no hyperedge contained in another)
// maintained throughout, generalizing the paper's k-core (which is the
// (k, 1)-core).  The l threshold matters for complex data: complexes
// whittled down to one or two proteins by peeling are biologically
// dubious cores, and (k, l ≥ 3) filters them.
//
// The peeler is the k-core's (csr.Decompose) with one more rule:
// hyperedges die when empty, non-maximal, or smaller than l; vertices
// die when their degree drops below k.
func BiCore(h *hypergraph.Hypergraph, k, l int) *Result {
	r, err := BiCoreCtx(context.Background(), h, k, l)
	if err != nil {
		panic(err) // only reachable through an armed failpoint
	}
	return r
}

// BiCoreCtx is BiCore honoring cancellation, deadline and any
// run.Budget attached to ctx, checked every bounded number of peel
// operations.  On cancellation or budget exhaustion it returns
// (nil, err).
func BiCoreCtx(ctx context.Context, h *hypergraph.Hypergraph, k, l int) (*Result, error) {
	d, err := decomposeL(ctx, h, l)
	if err != nil {
		return nil, err
	}
	return d.Core(k), nil
}

// BiCoreDecomposeL returns, for fixed l, the maximum k with a
// non-empty (k, l)-core, plus that core.  It exists so callers can
// sweep the l axis cheaply.
func BiCoreDecomposeL(h *hypergraph.Hypergraph, l int) (int, *Result) {
	d, err := decomposeL(context.Background(), h, l)
	if err != nil {
		//hyperplexvet:ignore nopanic only an armed failpoint fails a peel under a background context
		panic(err)
	}
	return d.MaxK, d.Core(d.MaxK)
}
