// Package cover implements minimum-weight vertex covers and multicovers
// of hypergraphs, used in the paper to select bait proteins for the
// Cellzome TAP experiments (§4).
//
// The main algorithm is the greedy set-cover heuristic of Johnson,
// Chvátal and Lovász: repeatedly pick the vertex of minimum current
// cost α(v) = w(v) / |adj(v) ∩ F_i| (its weight spread over the
// hyperedges it would newly cover) — an H_m = O(log m) approximation.
// A multicover variant covers each hyperedge f at least r_f times with
// the same guarantee.  A primal-dual algorithm (named as current work
// in §4.1 of the paper) provides an alternative with a Δ_F
// approximation ratio and a per-instance lower-bound certificate.
package cover

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fpGreedyPop fires on every checkpoint of the greedy selection loop.
var fpGreedyPop = failpoint.Register("cover.greedy.pop")

// greedyCheckEvery bounds how many heap pops may pass between
// cancellation/budget checkpoints.
const greedyCheckEvery = 64

// Cover is the result of a covering algorithm.
type Cover struct {
	// Vertices lists the chosen vertex IDs in the order selected.
	Vertices []int
	// InCover is the membership form of Vertices.
	InCover []bool
	// Weight is the total weight of the chosen vertices.
	Weight float64
}

// Size returns the number of chosen vertices.
func (c *Cover) Size() int { return len(c.Vertices) }

// AverageDegree returns the mean hypergraph degree of the chosen
// vertices — the paper's figure of merit for bait quality (low-degree
// baits pull down their complexes less ambiguously).
func (c *Cover) AverageDegree(h *hypergraph.Hypergraph) float64 {
	if len(c.Vertices) == 0 {
		return 0
	}
	sum := 0
	for _, v := range c.Vertices {
		sum += h.VertexDegree(v)
	}
	return float64(sum) / float64(len(c.Vertices))
}

// UnitWeights returns a weight of 1 for every vertex.
func UnitWeights(h *hypergraph.Hypergraph) []float64 {
	w := make([]float64, h.NumVertices())
	for i := range w {
		w[i] = 1
	}
	return w
}

// DegreeSquaredWeights returns w(v) = d(v)², the weighting the paper
// uses to bias the cover toward low-degree bait proteins.  Vertices of
// degree 0 get weight 1 so the weights stay positive.
func DegreeSquaredWeights(h *hypergraph.Hypergraph) []float64 {
	w := make([]float64, h.NumVertices())
	for v := range w {
		d := h.VertexDegree(v)
		if d == 0 {
			w[v] = 1
		} else {
			w[v] = float64(d * d)
		}
	}
	return w
}

// UniformRequirement returns r_f = r for every hyperedge.
func UniformRequirement(h *hypergraph.Hypergraph, r int) []int {
	req := make([]int, h.NumEdges())
	for i := range req {
		req[i] = r
	}
	return req
}

// checkWeights substitutes unit weights for nil and validates that
// every weight is positive and finite.  Shared by the map kernel, the
// CSR kernel and the primal-dual schema so all three reject invalid
// input with identical errors.
func checkWeights(h *hypergraph.Hypergraph, weights []float64) ([]float64, error) {
	if weights == nil {
		weights = UnitWeights(h)
	}
	if len(weights) != h.NumVertices() {
		return nil, fmt.Errorf("cover: %d weights for %d vertices", len(weights), h.NumVertices())
	}
	for v, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("cover: weight of vertex %d is %v; weights must be positive and finite", v, w)
		}
	}
	return weights, nil
}

// fillRequirements validates req (nil means a requirement of 1
// everywhere) and writes the outstanding per-hyperedge counts into
// remaining, which the caller sizes to h.NumEdges() — the CSR kernel
// hands in an arena slice, the map kernel a fresh one.  It returns the
// number of hyperedges with a positive requirement.
func fillRequirements(h *hypergraph.Hypergraph, req []int, remaining []int32) (int, error) {
	unmet := 0
	for f := range remaining {
		r := 1
		if req != nil {
			r = req[f]
		}
		if r < 0 {
			return 0, fmt.Errorf("cover: negative requirement %d for hyperedge %d", r, f)
		}
		if r > h.EdgeDegree(f) {
			return 0, fmt.Errorf("cover: hyperedge %s has %d vertices but requirement %d", h.EdgeLabel(f), h.EdgeDegree(f), r)
		}
		remaining[f] = int32(r)
		if r > 0 {
			unmet++
		}
	}
	return unmet, nil
}

// heap of candidate vertices keyed by last-known cost; stale entries
// are re-costed lazily at pop time (valid because a vertex's cost only
// increases as hyperedges become covered).
type costHeap struct {
	cost []float64
	v    []int32
}

func (h *costHeap) Len() int           { return len(h.v) }
func (h *costHeap) Less(i, j int) bool { return h.cost[i] < h.cost[j] }
func (h *costHeap) Swap(i, j int) {
	h.cost[i], h.cost[j] = h.cost[j], h.cost[i]
	h.v[i], h.v[j] = h.v[j], h.v[i]
}

//hyperplexvet:ignore nopanic container/heap interface stubs; the typed pushItem/popItem are the only callers
func (h *costHeap) Push(x interface{}) { panic("use pushItem") }

//hyperplexvet:ignore nopanic container/heap interface stubs; the typed pushItem/popItem are the only callers
func (h *costHeap) Pop() interface{} { panic("use popItem") }
func (h *costHeap) pushItem(c float64, v int32) {
	h.cost = append(h.cost, c)
	h.v = append(h.v, v)
	heap.Fix(h, h.Len()-1)
}

//hyperplexvet:hotpath
func (h *costHeap) popItem() (float64, int32) {
	c, v := h.cost[0], h.v[0]
	n := h.Len() - 1
	h.Swap(0, n)
	h.cost = h.cost[:n]
	h.v = h.v[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return c, v
}

// GreedyMulticover computes an approximate minimum-weight multicover:
// at least req[f] distinct vertices of every hyperedge f must be
// chosen.  req may be nil (then every requirement is 1: a plain
// vertex cover); requirements of 0 mean the hyperedge is ignored.
// weights may be nil for the unweighted (minimum cardinality) problem;
// all weights must be positive.  A hyperedge with req[f] greater
// than its cardinality is infeasible and yields an error naming it.
//
// The implementation follows the paper's greedy rule with a lazy
// min-heap: α(v) = w(v) / (number of adjacent hyperedges with unmet
// requirement).  Each pop re-computes the vertex's current cost and
// re-inserts it if stale, which is sound because costs only increase.
// It is the reference for CSRGreedyMulticover, the kernel the commands
// and the public API run, which returns exactly this cover.
func GreedyMulticover(h *hypergraph.Hypergraph, weights []float64, req []int) (*Cover, error) {
	return GreedyMulticoverCtx(context.Background(), h, weights, req)
}

// GreedyMulticoverCtx is GreedyMulticover honoring cancellation,
// deadline and any run.Budget attached to ctx (one step per heap pop,
// checked at bounded intervals).  On cancellation or budget exhaustion
// it returns (nil, err): a partially built cover does not satisfy the
// covering constraints.
func GreedyMulticoverCtx(ctx context.Context, h *hypergraph.Hypergraph, weights []float64, req []int) (*Cover, error) {
	if err := run.Tick(ctx, run.MeterFrom(ctx), 0); err != nil {
		return nil, err
	}
	nv, ne := h.NumVertices(), h.NumEdges()
	weights, err := checkWeights(h, weights)
	if err != nil {
		return nil, err
	}
	remaining := make([]int32, ne)
	unmet, err := fillRequirements(h, req, remaining)
	if err != nil {
		return nil, err
	}

	// gain(v) = number of adjacent hyperedges with unmet requirement.
	gain := func(v int) int {
		g := 0
		for _, f := range h.Edges(v) {
			if remaining[f] > 0 {
				g++
			}
		}
		return g
	}

	ch := &costHeap{}
	lastGain := make([]int, nv)
	meter := run.MeterFrom(ctx)
	// The heap seeding is O(pins) before the greedy loop's own ticks
	// start, so it checkpoints on the same interval as the pop loop.
	seeded := 0
	for v := 0; v < nv; v++ {
		if seeded++; seeded >= greedyCheckEvery {
			if err := run.Tick(ctx, meter, int64(seeded)); err != nil {
				return nil, err
			}
			seeded = 0
		}
		if g := gain(v); g > 0 {
			lastGain[v] = g
			ch.pushItem(weights[v]/float64(g), int32(v))
		}
	}

	c := &Cover{InCover: make([]bool, nv)}
	pops := 0
	for unmet > 0 {
		if ch.Len() == 0 {
			return nil, fmt.Errorf("cover: %d hyperedges remain uncoverable", unmet)
		}
		if pops++; pops >= greedyCheckEvery {
			if err := failpoint.Inject(fpGreedyPop); err != nil {
				return nil, err
			}
			if err := run.Tick(ctx, meter, int64(pops)); err != nil {
				return nil, err
			}
			pops = 0
		}
		_, v32 := ch.popItem()
		v := int(v32)
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
			ch.pushItem(weights[v]/float64(g), v32)
			continue
		}
		c.InCover[v] = true
		c.Vertices = append(c.Vertices, v)
		c.Weight += weights[v]
		for _, f := range h.Edges(v) {
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
		if err := failpoint.Inject(fpGreedyPop); err != nil {
			return nil, err
		}
		if err := run.Tick(ctx, meter, int64(pops)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Verify checks that cover satisfies the (multi)cover requirements on
// h.  req may be nil for plain covering.  It returns nil on success.
func Verify(h *hypergraph.Hypergraph, c *Cover, req []int) error {
	if len(c.InCover) != h.NumVertices() {
		return fmt.Errorf("cover: InCover has %d entries for %d vertices", len(c.InCover), h.NumVertices())
	}
	for f := 0; f < h.NumEdges(); f++ {
		r := 1
		if req != nil {
			r = req[f]
		}
		got := 0
		for _, v := range h.Vertices(f) {
			if c.InCover[v] {
				got++
			}
		}
		if got < r {
			return fmt.Errorf("cover: hyperedge %s covered %d times, need %d", h.EdgeLabel(f), got, r)
		}
	}
	return nil
}

// HarmonicBound returns H_m = 1 + 1/2 + … + 1/m, the greedy
// algorithm's approximation ratio for an instance with m hyperedges.
func HarmonicBound(m int) float64 {
	s := 0.0
	for i := 1; i <= m; i++ {
		s += 1 / float64(i)
	}
	return s
}
