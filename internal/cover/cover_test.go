package cover

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hyperplex/internal/hypergraph"
	"hyperplex/internal/xrand"
)

func triangleH(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("f2", "b", "c")
	b.AddEdge("f3", "a", "c")
	return b.MustBuild()
}

func TestGreedyStar(t *testing.T) {
	// A star hypergraph: one hub in every edge — greedy must pick just
	// the hub.
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "hub", "a")
	b.AddEdge("f2", "hub", "b")
	b.AddEdge("f3", "hub", "c")
	h := b.MustBuild()
	c, err := GreedyMulticover(h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 1 {
		t.Fatalf("cover size = %d, want 1", c.Size())
	}
	hub, _ := h.VertexID("hub")
	if !c.InCover[hub] {
		t.Error("greedy did not pick the hub")
	}
	if err := Verify(h, c, nil); err != nil {
		t.Error(err)
	}
}

func TestGreedyTriangle(t *testing.T) {
	h := triangleH(t)
	c, err := GreedyMulticover(h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any two vertices cover the triangle; one cannot.
	if c.Size() != 2 {
		t.Errorf("cover size = %d, want 2", c.Size())
	}
	if err := Verify(h, c, nil); err != nil {
		t.Error(err)
	}
}

func TestGreedyWeights(t *testing.T) {
	// Heavy hub: weights steer greedy away from it.
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "hub", "a")
	b.AddEdge("f2", "hub", "b")
	h := b.MustBuild()
	w := UnitWeights(h)
	hub, _ := h.VertexID("hub")
	w[hub] = 100
	c, err := GreedyMulticover(h, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.InCover[hub] {
		t.Error("greedy picked the heavy hub")
	}
	if c.Size() != 2 || c.Weight != 2 {
		t.Errorf("cover = %d vertices weight %v, want 2 vertices weight 2", c.Size(), c.Weight)
	}
}

func TestGreedyInvalidWeights(t *testing.T) {
	h := triangleH(t)
	for _, bad := range [][]float64{
		{1, 1},              // wrong length
		{0, 1, 1},           // zero
		{-1, 1, 1},          // negative
		{math.NaN(), 1, 1},  // NaN
		{math.Inf(1), 1, 1}, // Inf
	} {
		if _, err := GreedyMulticover(h, bad, nil); err == nil {
			t.Errorf("GreedyMulticover accepted invalid weights %v", bad)
		}
	}
}

func TestMulticover(t *testing.T) {
	h := triangleH(t)
	c, err := GreedyMulticover(h, nil, UniformRequirement(h, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Every edge has 2 vertices, so covering each twice needs all 3.
	if c.Size() != 3 {
		t.Errorf("2-multicover size = %d, want 3", c.Size())
	}
	if err := Verify(h, c, UniformRequirement(h, 2)); err != nil {
		t.Error(err)
	}
}

func TestMulticoverInfeasible(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("singleton", "a")
	h := b.MustBuild()
	_, err := GreedyMulticover(h, nil, UniformRequirement(h, 2))
	if err == nil {
		t.Fatal("2-multicover of a singleton edge should be infeasible")
	}
	if !strings.Contains(err.Error(), "singleton") {
		t.Errorf("error %q does not name the offending hyperedge", err)
	}
}

func TestMulticoverZeroRequirementSkips(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("want", "a", "b")
	b.AddEdge("skip", "c")
	h := b.MustBuild()
	req := []int{1, 0}
	c, err := GreedyMulticover(h, nil, req)
	if err != nil {
		t.Fatal(err)
	}
	cID, _ := h.VertexID("c")
	if c.InCover[cID] {
		t.Error("vertex of a requirement-0 edge was chosen")
	}
	if err := Verify(h, c, req); err != nil {
		t.Error(err)
	}
}

func TestMulticoverNegativeRequirement(t *testing.T) {
	h := triangleH(t)
	if _, err := GreedyMulticover(h, nil, []int{-1, 1, 1}); err == nil {
		t.Error("negative requirement accepted")
	}
}

func TestVerifyCatchesBadCover(t *testing.T) {
	h := triangleH(t)
	c := &Cover{InCover: make([]bool, h.NumVertices())}
	a, _ := h.VertexID("a")
	c.InCover[a] = true
	c.Vertices = []int{a}
	if err := Verify(h, c, nil); err == nil {
		t.Error("Verify accepted a non-cover")
	}
	// Wrong-length membership.
	bad := &Cover{InCover: make([]bool, 1)}
	if err := Verify(h, bad, nil); err == nil {
		t.Error("Verify accepted wrong-length InCover")
	}
}

func TestDegreeSquaredWeights(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("f1", "a", "b")
	b.AddEdge("f2", "a", "c")
	b.AddVertex("iso")
	h := b.MustBuild()
	w := DegreeSquaredWeights(h)
	a, _ := h.VertexID("a")
	iso, _ := h.VertexID("iso")
	if w[a] != 4 {
		t.Errorf("w(a) = %v, want 4", w[a])
	}
	if w[iso] != 1 {
		t.Errorf("w(iso) = %v, want 1 (degree-0 fallback)", w[iso])
	}
}

func TestHarmonicBound(t *testing.T) {
	if got := HarmonicBound(1); got != 1 {
		t.Errorf("H_1 = %v, want 1", got)
	}
	if got := HarmonicBound(4); math.Abs(got-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Errorf("H_4 = %v", got)
	}
}

func TestAverageDegree(t *testing.T) {
	h := triangleH(t)
	a, _ := h.VertexID("a")
	b, _ := h.VertexID("b")
	c := &Cover{Vertices: []int{a, b}, InCover: make([]bool, h.NumVertices())}
	if got := c.AverageDegree(h); got != 2 {
		t.Errorf("AverageDegree = %v, want 2", got)
	}
	empty := &Cover{}
	if got := empty.AverageDegree(h); got != 0 {
		t.Errorf("empty AverageDegree = %v, want 0", got)
	}
}

func TestPrimalDualBasic(t *testing.T) {
	h := triangleH(t)
	r, err := PrimalDual(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, r.Cover, nil); err != nil {
		t.Fatal(err)
	}
	if r.DualValue <= 0 || r.DualValue > r.Cover.Weight {
		t.Errorf("dual value %v not in (0, %v]", r.DualValue, r.Cover.Weight)
	}
	maxF := h.MaxEdgeDegree()
	if r.ApproxRatio() > float64(maxF)+1e-9 {
		t.Errorf("approx ratio %v exceeds Δ_F = %d", r.ApproxRatio(), maxF)
	}
}

func TestPrimalDualEmptyEdge(t *testing.T) {
	h, err := hypergraph.FromEdgeSets(2, [][]int32{{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrimalDual(h, nil); err == nil {
		t.Error("PrimalDual accepted an empty hyperedge")
	}
}

func TestPrimalDualEmptyInstance(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddVertex("a")
	h := b.MustBuild()
	r, err := PrimalDual(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cover.Size() != 0 || r.ApproxRatio() != 1 {
		t.Errorf("empty instance: size %d ratio %v", r.Cover.Size(), r.ApproxRatio())
	}
}

func randomCoverInstance(seed uint64) (*hypergraph.Hypergraph, []float64) {
	rng := xrand.New(seed)
	nv := 2 + rng.Intn(15)
	ne := 1 + rng.Intn(20)
	edges := make([][]int32, ne)
	for f := range edges {
		size := 1 + rng.Intn(4)
		if size > nv {
			size = nv
		}
		seen := map[int32]bool{}
		for len(seen) < size {
			seen[int32(rng.Intn(nv))] = true
		}
		for v := range seen {
			edges[f] = append(edges[f], v)
		}
	}
	h, err := hypergraph.FromEdgeSets(nv, edges)
	if err != nil {
		panic(err)
	}
	w := make([]float64, nv)
	for i := range w {
		w[i] = 0.5 + rng.Float64()*4
	}
	return h, w
}

// optimalCoverWeight brute-forces the optimum for small instances.
func optimalCoverWeight(h *hypergraph.Hypergraph, w []float64, req []int) float64 {
	nv := h.NumVertices()
	best := math.Inf(1)
	for mask := 0; mask < 1<<nv; mask++ {
		weight := 0.0
		for v := 0; v < nv; v++ {
			if mask&(1<<v) != 0 {
				weight += w[v]
			}
		}
		if weight >= best {
			continue
		}
		ok := true
		for f := 0; f < h.NumEdges() && ok; f++ {
			r := 1
			if req != nil {
				r = req[f]
			}
			got := 0
			for _, v := range h.Vertices(f) {
				if mask&(1<<int(v)) != 0 {
					got++
				}
			}
			ok = got >= r
		}
		if ok {
			best = weight
		}
	}
	return best
}

func TestPropertyGreedyFeasibleAndBounded(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		if h.NumVertices() > 14 {
			return true // keep the brute force cheap
		}
		c, err := GreedyMulticover(h, w, nil)
		if err != nil {
			return false
		}
		if Verify(h, c, nil) != nil {
			return false
		}
		opt := optimalCoverWeight(h, w, nil)
		return c.Weight <= opt*HarmonicBound(h.NumEdges())+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrimalDualCertificate(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		if h.NumVertices() > 14 {
			return true
		}
		r, err := PrimalDual(h, w)
		if err != nil {
			return false
		}
		if Verify(h, r.Cover, nil) != nil {
			return false
		}
		opt := optimalCoverWeight(h, w, nil)
		// dual ≤ OPT ≤ primal ≤ Δ_F · dual
		if r.DualValue > opt+1e-9 {
			return false
		}
		if r.Cover.Weight < opt-1e-9 {
			return false
		}
		return r.Cover.Weight <= float64(h.MaxEdgeDegree())*r.DualValue+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulticoverFeasible(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		req := make([]int, h.NumEdges())
		rng := xrand.New(seed ^ 0x1234)
		for f := range req {
			r := 1 + rng.Intn(2)
			if r > h.EdgeDegree(f) {
				r = h.EdgeDegree(f)
			}
			req[f] = r
		}
		c, err := GreedyMulticover(h, w, req)
		if err != nil {
			return false
		}
		return Verify(h, c, req) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoverNoDuplicates(t *testing.T) {
	prop := func(seed uint64) bool {
		h, w := randomCoverInstance(seed)
		c, err := GreedyMulticover(h, w, nil)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, v := range c.Vertices {
			if seen[v] {
				return false
			}
			seen[v] = true
			if !c.InCover[v] {
				return false
			}
		}
		n := 0
		for _, in := range c.InCover {
			if in {
				n++
			}
		}
		return n == len(c.Vertices)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
