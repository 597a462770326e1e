package check

import (
	"bytes"
	"strings"
	"testing"

	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/stats"
)

// testHypergraph is small but exercises every peeling rule: a dense
// 2-core, a contained hyperedge, a duplicate, and a pendant vertex.
func testHypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.FromEdgeSets(7, [][]int32{
		{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, // dense block
		{1, 2},    // contained in edges 0 and 1
		{0, 1, 2}, // duplicate of edge 0
		{3, 4},    // pendant path
		{5},       // low-degree leaf edge
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestValidCoreAcceptsAndRejects runs the checker on the real KCore
// and overlap-peel results, then on systematically corrupted copies:
// every corruption must be reported.
func TestValidCoreAcceptsAndRejects(t *testing.T) {
	h := testHypergraph(t)
	for k := 0; k <= 4; k++ {
		if err := ValidCore(h, k, core.KCore(h, k)); err != nil {
			t.Fatalf("k=%d: genuine result rejected: %v", k, err)
		}
		if err := ValidCore(h, k, OverlapCore(h, k, 1)); err != nil {
			t.Fatalf("k=%d: overlap-peel result rejected: %v", k, err)
		}
	}

	r := core.KCore(h, 2)
	if r.NumVertices == 0 {
		t.Fatal("test hypergraph should have a non-empty 2-core")
	}
	mutations := []func(*core.Result){
		func(m *core.Result) { m.VertexIn[firstTrue(m.VertexIn)] = false; m.NumVertices-- },
		func(m *core.Result) { m.VertexIn[firstFalse(m.VertexIn)] = true; m.NumVertices++ },
		func(m *core.Result) { m.EdgeIn[firstTrue(m.EdgeIn)] = false; m.NumEdges-- },
		func(m *core.Result) { m.EdgeIn[firstFalse(m.EdgeIn)] = true; m.NumEdges++ },
		func(m *core.Result) { m.NumVertices++ },
		func(m *core.Result) { m.K++ },
	}
	for i, mutate := range mutations {
		m := &core.Result{
			K:           r.K,
			VertexIn:    append([]bool(nil), r.VertexIn...),
			EdgeIn:      append([]bool(nil), r.EdgeIn...),
			NumVertices: r.NumVertices,
			NumEdges:    r.NumEdges,
		}
		mutate(m)
		if err := ValidCore(h, 2, m); err == nil {
			t.Errorf("mutation %d not detected by ValidCore", i)
		}
	}
}

func TestValidBiCoreMatchesBiCore(t *testing.T) {
	h := testHypergraph(t)
	for _, kl := range [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 3}, {1, 4}} {
		if err := ValidBiCore(h, kl[0], kl[1], core.BiCore(h, kl[0], kl[1])); err != nil {
			t.Errorf("BiCore(%d,%d) rejected: %v", kl[0], kl[1], err)
		}
		if err := ValidBiCore(h, kl[0], kl[1], OverlapCore(h, kl[0], kl[1])); err != nil {
			t.Errorf("OverlapCore(%d,%d) rejected: %v", kl[0], kl[1], err)
		}
	}
}

func TestValidDecomposition(t *testing.T) {
	h := testHypergraph(t)
	d := core.Decompose(h)
	if err := ValidDecomposition(h, d); err != nil {
		t.Fatalf("genuine decomposition rejected: %v", err)
	}
	if err := ValidDecomposition(h, OverlapDecompose(h)); err != nil {
		t.Fatalf("overlap-peel decomposition rejected: %v", err)
	}
	bad := &core.Decomposition{
		VertexCoreness: append([]int(nil), d.VertexCoreness...),
		EdgeCoreness:   append([]int(nil), d.EdgeCoreness...),
		MaxK:           d.MaxK,
	}
	bad.VertexCoreness[0]++
	if err := ValidDecomposition(h, bad); err == nil {
		t.Error("inflated vertex coreness not detected")
	}
}

func TestValidCoverAcceptsAndRejects(t *testing.T) {
	h := testHypergraph(t)
	c, err := cover.Greedy(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidCover(h, c, nil, nil); err != nil {
		t.Fatalf("genuine cover rejected: %v", err)
	}

	// Uncover a vertex: some hyperedge must go short.
	broken := &cover.Cover{
		Vertices: append([]int(nil), c.Vertices[1:]...),
		InCover:  append([]bool(nil), c.InCover...),
		Weight:   c.Weight - 1,
	}
	broken.InCover[c.Vertices[0]] = false
	if err := ValidCover(h, broken, nil, nil); err == nil {
		t.Error("infeasible cover not detected")
	}
	// Lie about the weight.
	lied := &cover.Cover{Vertices: c.Vertices, InCover: c.InCover, Weight: c.Weight / 2}
	if err := ValidCover(h, lied, nil, nil); err == nil {
		t.Error("wrong weight not detected")
	}
	// Multicover requirement beyond what the cover provides.
	req := make([]int, h.NumEdges())
	for f := range req {
		req[f] = h.EdgeDegree(f)
	}
	if err := ValidCover(h, c, nil, req); err == nil {
		t.Error("unmet multicover requirement not detected")
	}
}

func TestValidPrimalDualAcceptsAndRejects(t *testing.T) {
	h := testHypergraph(t)
	pd, err := cover.PrimalDual(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidPrimalDual(h, nil, pd); err != nil {
		t.Fatalf("genuine primal-dual result rejected: %v", err)
	}
	inflated := &cover.PrimalDualResult{
		Cover:     pd.Cover,
		Dual:      append([]float64(nil), pd.Dual...),
		DualValue: pd.DualValue + 10,
	}
	inflated.Dual[0] += 10
	if err := ValidPrimalDual(h, nil, inflated); err == nil {
		t.Error("dual infeasibility not detected")
	}
}

func TestMulticoverOptBrute(t *testing.T) {
	// Star: center covers everything; optimum is 1.
	h, err := hypergraph.FromEdgeSets(5, [][]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	opt, in, err := MulticoverOptBrute(h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 || !in[0] {
		t.Errorf("star optimum = %g with center in=%t, want 1 with center chosen", opt, in[0])
	}
	// 2-multicover forces both endpoints of every edge.
	req := []int{2, 2, 2, 2}
	opt2, _, err := MulticoverOptBrute(h, nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if opt2 != 5 {
		t.Errorf("2-multicover optimum = %g, want 5", opt2)
	}
	// Infeasible requirement is reported.
	if _, _, err := MulticoverOptBrute(h, nil, []int{3, 1, 1, 1}); err == nil {
		t.Error("infeasible requirement not reported")
	}
}

func TestShortestPathNaiveAndValidPath(t *testing.T) {
	h := testHypergraph(t)
	d, ok := ShortestPathNaive(h, 0, 4)
	if !ok || d != 2 {
		t.Errorf("distance 0→4 = %d, %t; want 2, true", d, ok)
	}
	if _, ok := ShortestPathNaive(h, 0, 6); ok {
		t.Error("isolated vertex 6 reported reachable")
	}
	p, ok := stats.ShortestPath(h, 0, 4)
	if !ok {
		t.Fatal("stats.ShortestPath found no path 0→4")
	}
	if err := ValidPath(h, 0, 4, p); err != nil {
		t.Errorf("genuine path rejected: %v", err)
	}
	bad := p
	bad.Vertices = append([]int(nil), p.Vertices...)
	bad.Vertices[len(bad.Vertices)-1] = 5
	if err := ValidPath(h, 0, 4, bad); err == nil {
		t.Error("path with wrong endpoint not detected")
	}
}

func TestRoundTripCheckers(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("CPX1", "a", "b", "c")
	b.AddEdge("CPX2", "b", "d")
	b.AddVertex("lonely")
	h := b.MustBuild()
	if err := RoundTripAll(h); err != nil {
		t.Errorf("round trip of a named hypergraph: %v", err)
	}
	if err := SameNamed(h, h); err != nil {
		t.Errorf("SameNamed not reflexive: %v", err)
	}
	other := testHypergraph(t)
	if err := SameNamed(h, other); err == nil {
		t.Error("SameNamed equated different hypergraphs")
	}
}

func TestInstancesDeterministicAndDiverse(t *testing.T) {
	a := Instances(30, 42)
	bset := Instances(30, 42)
	if len(a) != 30 || len(bset) != 30 {
		t.Fatalf("got %d/%d instances, want 30", len(a), len(bset))
	}
	for i := range a {
		var wa, wb bytes.Buffer
		if err := hypergraph.WriteText(&wa, a[i]); err != nil {
			t.Fatal(err)
		}
		if err := hypergraph.WriteText(&wb, bset[i]); err != nil {
			t.Fatal(err)
		}
		if wa.String() != wb.String() {
			t.Fatalf("instance %d differs between equal-seed sweeps", i)
		}
		if err := a[i].CSR().Validate(); err != nil {
			t.Errorf("instance %d invalid: %v", i, err)
		}
	}
	diff := Instances(30, 43)
	same := 0
	for i := 10; i < 30; i++ { // skip the crafted prefix
		var wa, wb strings.Builder
		_ = hypergraph.WriteText(&wa, a[i])
		_ = hypergraph.WriteText(&wb, diff[i])
		if wa.String() == wb.String() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical generated instances")
	}
}

func firstTrue(b []bool) int {
	for i, x := range b {
		if x {
			return i
		}
	}
	return -1
}

func firstFalse(b []bool) int {
	for i, x := range b {
		if !x {
			return i
		}
	}
	return -1
}
