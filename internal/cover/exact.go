package cover

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hyperplex/internal/hypergraph"
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
// optimality is proved.
func Exact(h *hypergraph.Hypergraph, weights []float64, maxNodes int64) (*Cover, error) {
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
	incumbent, err := CSRGreedyMulticover(h, weights, nil)
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
	capped := false

	// lowerBound: each uncovered hyperedge needs at least its cheapest
	// member; sum of per-edge minima divided by the max edge degree is
	// a valid bound, but the simpler "max over uncovered edges of the
	// cheapest member" plus current weight is both cheap and admissible.
	cheapest := make([]float64, ne)
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
		if capped {
			return
		}
		nodes++
		if nodes > maxNodes {
			capped = true
			return
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
			if capped {
				return
			}
		}
	}
	dfs(0, 0)
	if capped {
		return nil, fmt.Errorf("%w: hit the %d-node cap before proving optimality", ErrSearchCapped, maxNodes)
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
