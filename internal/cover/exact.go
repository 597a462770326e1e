package cover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// ErrSearchCapped reports that Exact exhausted its node cap before
// proving optimality.  Callers that treat a capped search as
// "inconclusive" rather than fatal (the differential oracles) test for
// it with errors.Is.
var ErrSearchCapped = errors.New("cover: exact search capped")

// Exact computes an optimal minimum-weight vertex cover by
// branch-and-bound: branch on an uncovered hyperedge (one branch per
// member vertex), prune with the running best and a fractional
// lower bound.  Exponential in the worst case — intended for instances
// up to a few hundred hyperedges, where it certifies the greedy and
// primal-dual results; maxNodes caps the search (0 means a default of
// 5 million) and an error is returned if the cap is hit before
// optimality is proved.  Exact is ExactCtx without a deadline or
// budget.
func Exact(h *hypergraph.Hypergraph, weights []float64, maxNodes int64) (*Cover, error) {
	return ExactCtx(context.Background(), h, weights, maxNodes)
}

// ExactCtx is Exact honoring cancellation, deadline and any run.Budget
// attached to ctx: the greedy incumbent charges its pops, and the
// search one step per node, checked at the greedy kernels' interval.  On
// cancellation or budget exhaustion it returns (nil, err): the best
// cover found so far is not proved optimal.
func ExactCtx(ctx context.Context, h *hypergraph.Hypergraph, weights []float64, maxNodes int64) (*Cover, error) {
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		return nil, err
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	weights, err := checkWeights(h, weights)
	if err != nil {
		return nil, err
	}
	for f := 0; f < ne; f++ {
		if h.EdgeDegree(f) == 0 {
			return nil, fmt.Errorf("cover: hyperedge %d is empty and cannot be covered", f)
		}
	}
	if maxNodes <= 0 {
		maxNodes = 5_000_000
	}

	// Start from the greedy solution as the incumbent.
	incumbent, err := CSRGreedyMulticoverCtx(ctx, h, weights, nil)
	if err != nil {
		return nil, err
	}
	best := append([]bool(nil), incumbent.InCover...)
	bestW := incumbent.Weight

	// Branch order: hardest hyperedges (fewest members) first.
	order := h.SortedEdgeIDsByDegree()

	inCover := make([]bool, nv)
	coveredBy := make([]int, ne) // how many chosen vertices cover f
	nodes := int64(0)
	meter := run.MeterFrom(ctx)
	// pending counts the nodes not yet charged; stop, once set (the
	// cap, a cancellation or the budget), unwinds the search.
	pending := 0
	var stop error

	// lowerBound: each uncovered hyperedge needs at least its cheapest
	// member; sum of per-edge minima divided by the max edge degree is
	// a valid bound, but the simpler "max over uncovered edges of the
	// cheapest member" plus current weight is both cheap and admissible.
	cheapest := make([]float64, ne)
	//hyperplexvet:ignore budgettick bounded pass that reads each pin once, a search node's worth of work per hyperedge
	for f := 0; f < ne; f++ {
		min := math.Inf(1)
		for _, v := range h.Vertices(f) {
			if weights[v] < min {
				min = weights[v]
			}
		}
		cheapest[f] = min
	}

	var dfs func(idx int, weight float64)
	dfs = func(idx int, weight float64) {
		if stop != nil {
			return
		}
		nodes++
		if nodes > maxNodes {
			stop = fmt.Errorf("%w: hit the %d-node cap before proving optimality", ErrSearchCapped, maxNodes)
			return
		}
		if pending++; pending >= greedyCheckEvery {
			if stop = run.Tick(ctx, meter, int64(pending)); stop != nil {
				return
			}
			pending = 0
		}
		// Advance to the next uncovered hyperedge.
		for idx < ne && coveredBy[order[idx]] > 0 {
			idx++
		}
		if idx == ne {
			if weight < bestW {
				bestW = weight
				copy(best, inCover)
			}
			return
		}
		f := order[idx]
		if weight+cheapest[f] >= bestW {
			return
		}
		// Branch: choose each member of f in turn.  To avoid exploring
		// the same cover twice, branch i also forbids the members tried
		// in branches < i; the simple version below just relies on the
		// bound, which is sufficient at the target sizes.
		//hyperplexvet:ignore budgettick bounded branch over one hyperedge's members; every branch taken enters dfs, which charges its node
		for _, v32 := range h.Vertices(f) {
			v := int(v32)
			if inCover[v] {
				continue
			}
			if weight+weights[v] >= bestW {
				continue
			}
			inCover[v] = true
			for _, g := range h.Edges(v) {
				coveredBy[g]++
			}
			dfs(idx+1, weight+weights[v])
			inCover[v] = false
			for _, g := range h.Edges(v) {
				coveredBy[g]--
			}
			if stop != nil {
				return
			}
		}
	}
	dfs(0, 0)
	if stop == nil {
		// The last nodes, fewer than greedyCheckEvery, are charged here.
		stop = run.Tick(ctx, meter, int64(pending))
	}
	if stop != nil {
		return nil, stop
	}

	c := &Cover{InCover: best, Weight: bestW}
	for v, in := range best {
		if in {
			c.Vertices = append(c.Vertices, v)
		}
	}
	sort.Ints(c.Vertices)
	return c, nil
}
