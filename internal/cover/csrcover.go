package cover

import (
	"context"
	"fmt"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// This file is the flat-array greedy multicover kernel: the same lazy
// min-heap selection rule as GreedyMulticover, but with the inner loops
// running over the hypergraph's csr.CSR arrays — gain recomputation and requirement
// decrements walk flat VertexEdges rows, and the int32 state
// (remaining, lastGain, the heap's vertex array) is carved from one
// arena allocation.  Only the cost keys stay in a separate float64
// slice, preallocated to the heap's proven maximum size.
//
// The kernel is pinned to the map kernel by exact cover equality,
// including selection order, so the heap discipline must match
// byte-for-byte: it reuses costHeap itself (sift-up on push, sift-down
// on pop via container/heap), pushes the initial candidates in the same
// ascending vertex order, and computes costs with the identical
// weights[v]/float64(g) arithmetic.  The heap never outgrows its
// preallocation because every re-push is preceded by a pop.

// fpCSRPop fires on every checkpoint of the CSR greedy selection loop.
var fpCSRPop = failpoint.Register("cover.csr.pop")

// CSRGreedy computes an approximate minimum-weight vertex cover with
// the flat-array kernel.  It returns the exact cover
// GreedyMulticover returns with nil requirements, selected in the same
// order.
func CSRGreedy(h *hypergraph.Hypergraph, weights []float64) (*Cover, error) {
	return CSRGreedyMulticover(h, weights, nil)
}

// CSRGreedyCtx is CSRGreedy honoring cancellation, deadline and any
// run.Budget attached to ctx (one step per heap pop, checked at
// bounded intervals).
func CSRGreedyCtx(ctx context.Context, h *hypergraph.Hypergraph, weights []float64) (*Cover, error) {
	return CSRGreedyMulticoverCtx(ctx, h, weights, nil)
}

// CSRGreedyMulticover computes an approximate minimum-weight multicover
// with the flat-array kernel: the exact cover GreedyMulticover returns,
// selected in the same order, from inner loops over a CSR view.
func CSRGreedyMulticover(h *hypergraph.Hypergraph, weights []float64, req []int) (*Cover, error) {
	return CSRGreedyMulticoverCtx(context.Background(), h, weights, req)
}

// CSRGreedyMulticoverCtx is CSRGreedyMulticover honoring cancellation,
// deadline and any run.Budget attached to ctx (one step per heap pop,
// checked at bounded intervals).  On cancellation or budget exhaustion
// it returns (nil, err): a partially built cover does not satisfy the
// covering constraints.
func CSRGreedyMulticoverCtx(ctx context.Context, h *hypergraph.Hypergraph, weights []float64, req []int) (*Cover, error) {
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		return nil, err
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	weights, err := checkWeights(h, weights)
	if err != nil {
		return nil, err
	}

	// One arena allocation backs every int32 slice of the kernel; the
	// heap's vertex array is carved at its maximum live size (each
	// re-push follows a pop, so the heap never exceeds its initial nv
	// candidates).
	arena := make([]int32, ne+2*nv)
	carve := func(n int) []int32 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	remaining := carve(ne)
	lastGain := carve(nv)
	heapV := carve(nv)[:0]

	unmet, err := fillRequirements(h, req, remaining)
	if err != nil {
		return nil, err
	}

	view := h.CSR()
	// gain(v) = number of adjacent hyperedges with unmet requirement,
	// counted over the flat pin row.
	gain := func(v int32) int32 {
		g := int32(0)
		for _, f := range view.VertexEdges(v) {
			if remaining[f] > 0 {
				g++
			}
		}
		return g
	}

	ch := &costHeap{cost: make([]float64, 0, nv), v: heapV}
	meter := run.MeterFrom(ctx)
	// The heap seeding is O(pins) before the greedy loop's own ticks
	// start, so it checkpoints on the same interval as the pop loop.
	seeded := 0
	for v := int32(0); int(v) < nv; v++ {
		if seeded++; seeded >= greedyCheckEvery {
			if err := run.Tick(ctx, meter, int64(seeded)); err != nil {
				return nil, err
			}
			seeded = 0
		}
		if g := gain(v); g > 0 {
			lastGain[v] = g
			ch.pushItem(weights[v]/float64(g), v)
		}
	}

	c := &Cover{InCover: make([]bool, nv)}
	pops := 0
	for unmet > 0 {
		if ch.Len() == 0 {
			return nil, fmt.Errorf("cover: %d hyperedges remain uncoverable", unmet)
		}
		if pops++; pops >= greedyCheckEvery {
			if err := failpoint.Inject(fpCSRPop); err != nil {
				return nil, err
			}
			if err := run.Tick(ctx, meter, int64(pops)); err != nil {
				return nil, err
			}
			pops = 0
		}
		_, v := ch.popItem()
		if c.InCover[v] {
			continue
		}
		g := gain(v)
		if g == 0 {
			continue
		}
		if g != lastGain[v] {
			// Stale entry: re-cost and retry.
			lastGain[v] = g
			ch.pushItem(weights[v]/float64(g), v)
			continue
		}
		c.InCover[v] = true
		c.Vertices = append(c.Vertices, int(v))
		c.Weight += weights[v]
		//hyperplexvet:hotpath
		for _, f := range view.VertexEdges(v) {
			if remaining[f] > 0 {
				remaining[f]--
				if remaining[f] == 0 {
					unmet--
				}
			}
		}
	}
	// The final sub-checkEvery batch of pops never reached a periodic
	// checkpoint; charge it so every pop is metered exactly once.
	if pops > 0 {
		if err := failpoint.Inject(fpCSRPop); err != nil {
			return nil, err
		}
		if err := run.Tick(ctx, meter, int64(pops)); err != nil {
			return nil, err
		}
	}
	return c, nil
}
