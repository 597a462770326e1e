// Differential tests validating the covering algorithms against the
// brute-force oracle and invariant checkers in internal/check.  This
// file is an external test package because check imports cover.
package cover_test

import (
	"testing"

	"hyperplex/internal/check"
	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

// tinyInstances generates hypergraphs small enough for the exhaustive
// multicover oracle (≤ 12 vertices).
func tinyInstances(count int, seed uint64) []*hypergraph.Hypergraph {
	rng := xrand.New(seed)
	out := make([]*hypergraph.Hypergraph, 0, count)
	for len(out) < count {
		nv := 2 + rng.Intn(11)
		ne := 1 + rng.Intn(8)
		maxSize := 1 + rng.Intn(3)
		out = append(out, gen.RandomHypergraph(nv, ne, maxSize, rng))
	}
	return out
}

// feasibleReq returns the requirement min(r, d(f)) per hyperedge, the
// clamping the paper applies to singleton complexes in §4.2.
func feasibleReq(h *hypergraph.Hypergraph, r int) []int {
	req := make([]int, h.NumEdges())
	for f := range req {
		req[f] = r
		if d := h.EdgeDegree(f); d < r {
			req[f] = d
		}
	}
	return req
}

// TestDifferentialGreedyCover checks greedy covers for feasibility and
// consistency on the full sweep, and against the exact optimum (within
// the H_m guarantee) on tiny instances.
func TestDifferentialGreedyCover(t *testing.T) {
	for i, h := range check.Instances(58, 0xC0FE1) {
		c, err := cover.GreedyMulticover(h, nil, nil)
		if err != nil {
			if !hasEmptyEdge(h) {
				t.Fatalf("instance %d %v: GreedyMulticover failed without an empty hyperedge: %v", i, h, err)
			}
			continue
		}
		if err := check.ValidCover(h, c, nil, nil); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
	}
	for i, h := range tinyInstances(40, 0xC0FE2) {
		c, err := cover.GreedyMulticover(h, nil, nil)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		if err := check.ValidCover(h, c, nil, nil); err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		opt, _, err := check.MulticoverOptBrute(h, nil, nil)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		bound := cover.HarmonicBound(h.NumEdges()) * opt
		if c.Weight < opt-1e-9 || c.Weight > bound+1e-9 {
			t.Fatalf("tiny %d %v: greedy weight %g outside [OPT=%g, H_m·OPT=%g]", i, h, c.Weight, opt, bound)
		}
	}
	h := dataset.Cellzome().H
	for _, w := range [][]float64{nil, cover.DegreeSquaredWeights(h)} {
		c, err := cover.GreedyMulticover(h, w, nil)
		if err != nil {
			t.Fatalf("Cellzome greedy: %v", err)
		}
		if err := check.ValidCover(h, c, w, nil); err != nil {
			t.Fatalf("Cellzome greedy: %v", err)
		}
	}
}

// TestDifferentialMulticover checks the multicover variant the same
// way, with requirement 2 clamped to hyperedge cardinality.
func TestDifferentialMulticover(t *testing.T) {
	for i, h := range check.Instances(58, 0xC0FE3) {
		req := feasibleReq(h, 2)
		c, err := cover.GreedyMulticover(h, nil, req)
		if err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		if err := check.ValidCover(h, c, nil, req); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
		if err := cover.Verify(h, c, req); err != nil {
			t.Fatalf("instance %d %v: checkers disagree, cover.Verify says %v", i, h, err)
		}
	}
	for i, h := range tinyInstances(40, 0xC0FE4) {
		req := feasibleReq(h, 2)
		c, err := cover.GreedyMulticover(h, nil, req)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		if err := check.ValidCover(h, c, nil, req); err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		opt, _, err := check.MulticoverOptBrute(h, nil, req)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		total := 0
		for _, r := range req {
			total += r
		}
		bound := cover.HarmonicBound(total) * opt
		if c.Weight < opt-1e-9 || c.Weight > bound+1e-9 {
			t.Fatalf("tiny %d %v: multicover weight %g outside [OPT=%g, bound=%g]", i, h, c.Weight, opt, bound)
		}
	}
	h := dataset.Cellzome().H
	req := feasibleReq(h, 2)
	c, err := cover.GreedyMulticover(h, nil, req)
	if err != nil {
		t.Fatalf("Cellzome multicover: %v", err)
	}
	if err := check.ValidCover(h, c, nil, req); err != nil {
		t.Fatalf("Cellzome multicover: %v", err)
	}
}

// TestDifferentialPrimalDual verifies the primal-dual certificate on
// the sweep and that its dual value really lower-bounds the optimum on
// tiny instances.
func TestDifferentialPrimalDual(t *testing.T) {
	for i, h := range check.Instances(58, 0xC0FE5) {
		pd, err := cover.PrimalDual(h, nil)
		if err != nil {
			if !hasEmptyEdge(h) {
				t.Fatalf("instance %d %v: PrimalDual failed without an empty hyperedge: %v", i, h, err)
			}
			continue
		}
		if err := check.ValidPrimalDual(h, nil, pd); err != nil {
			t.Fatalf("instance %d %v: %v", i, h, err)
		}
	}
	for i, h := range tinyInstances(40, 0xC0FE6) {
		pd, err := cover.PrimalDual(h, nil)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		if err := check.ValidPrimalDual(h, nil, pd); err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		opt, _, err := check.MulticoverOptBrute(h, nil, nil)
		if err != nil {
			t.Fatalf("tiny %d %v: %v", i, h, err)
		}
		if pd.DualValue > opt+1e-9 {
			t.Fatalf("tiny %d %v: dual value %g exceeds optimum %g", i, h, pd.DualValue, opt)
		}
		if pd.Cover.Weight < opt-1e-9 {
			t.Fatalf("tiny %d %v: primal weight %g below optimum %g", i, h, pd.Cover.Weight, opt)
		}
	}
	h := dataset.Cellzome().H
	for _, w := range [][]float64{nil, cover.DegreeSquaredWeights(h)} {
		pd, err := cover.PrimalDual(h, w)
		if err != nil {
			t.Fatalf("Cellzome primal-dual: %v", err)
		}
		if err := check.ValidPrimalDual(h, w, pd); err != nil {
			t.Fatalf("Cellzome primal-dual: %v", err)
		}
	}
}

func hasEmptyEdge(h *hypergraph.Hypergraph) bool {
	for f := 0; f < h.NumEdges(); f++ {
		if h.EdgeDegree(f) == 0 {
			return true
		}
	}
	return false
}
